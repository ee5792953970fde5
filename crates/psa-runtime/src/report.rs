//! Run reports.

use crate::checkpoint::RecoveryEvent;
use netsim::TrafficStats;
use psa_math::stats::Running;
use psa_trace::TraceReport;

/// Scale a particle count by the population scale factor, rounding to the
/// nearest real particle instead of truncating toward zero.
///
/// The engine counts *scaled-down* particles and multiplies back up for
/// reporting; the old truncating cast silently dropped up to one particle
/// per count at fractional scale factors (e.g. `7 × 12.5 = 87.5 → 87`),
/// which made "zero particles lost" gates flaky. Rust's saturating float →
/// int cast clamps any overflow to `u64::MAX` and maps NaN to 0.
pub(crate) fn scale_count(count: u64, scale: f64) -> u64 {
    (count as f64 * scale).round() as u64
}

/// Per-frame aggregate measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FrameReport {
    pub frame: u64,
    /// Alive particles across all systems at frame end.
    pub alive: u64,
    /// Particles that changed calculator this frame (migration).
    pub migrated: u64,
    /// Migration payload bytes this frame.
    pub migration_bytes: u64,
    /// Particles moved by the load balancer this frame.
    pub balanced: u64,
    /// Virtual (or wall) seconds this frame added to the makespan.
    pub frame_time: f64,
    /// Coefficient of imbalance `max/mean − 1` across calculators.
    pub imbalance: f64,
    /// Ordered [`StateHash`](psa_core::invariants::StateHash) over every
    /// particle state alive at the end of this frame, in (system,
    /// calculator, store) order (0 when the executor does not compute it).
    /// Two same-seed runs must agree bit-for-bit — the determinism
    /// regression tests compare these.
    pub checksum: u64,
    /// Deadline-expired receives this frame (fault injection / dead peers).
    pub timeouts: u64,
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Paper-style config label (`FS-DLB` …).
    pub label: String,
    /// Cluster description (`8*B(16P.)` …) or "sequential".
    pub cluster: String,
    /// Number of calculator processes (1 for sequential).
    pub calculators: usize,
    /// Total makespan in virtual (or wall) seconds.
    pub total_time: f64,
    /// Per-frame measurements, in frame order.
    pub frames: Vec<FrameReport>,
    /// Fabric-level traffic totals.
    pub traffic: TrafficStats,
    /// Calculators declared dead during the run, as `(rank, frame)` in
    /// declaration order. Empty for healthy runs.
    pub dead_ranks: Vec<(usize, u64)>,
    /// Particles lost to dead ranks (confiscated with the rank or sent
    /// towards it before death was detected).
    pub lost_particles: u64,
    /// Per-phase observability trace, present when the run was instrumented
    /// (`EventSim::with_phases` / `run_threaded_traced`). Covers *every*
    /// frame including warm-up (the `frames` field above filters warm-up).
    /// Deliberately **excluded** from [`fingerprint`](Self::fingerprint):
    /// the trace is derived measurement, not run output, and instrumented
    /// runs must fingerprint identically to bare runs.
    pub phases: Option<TraceReport>,
    /// Crash recoveries the engine performed (rollback to the last snapshot
    /// plus deterministic replay), in occurrence order. Empty unless
    /// [`crate::RunConfig::checkpoint_interval`] is non-zero and a crash tripped.
    /// Deliberately **excluded** from [`fingerprint`](Self::fingerprint)
    /// for the same reason as `phases`: recovery is machinery *around* the
    /// run, and the recovery gate's whole point is that a recovered run
    /// fingerprints identically to an uninterrupted one.
    pub recoveries: Vec<RecoveryEvent>,
}

impl RunReport {
    /// Mean alive population over non-warm-up frames; `0.0` when the run
    /// produced no reportable frames (fully degraded / crashed runs).
    pub fn mean_alive(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let mut r = Running::new();
        for f in &self.frames {
            r.push(f.alive as f64);
        }
        r.mean()
    }

    /// Mean particles migrated per frame; `0.0` on an empty run.
    pub fn mean_migrated(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let mut r = Running::new();
        for f in &self.frames {
            r.push(f.migrated as f64);
        }
        r.mean()
    }

    /// Mean migration KB per frame (the §5.1/§5.2 in-text numbers); `0.0`
    /// on an empty run.
    pub fn mean_migration_kb(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let mut r = Running::new();
        for f in &self.frames {
            r.push(f.migration_bytes as f64 / 1024.0);
        }
        r.mean()
    }

    /// Mean imbalance across frames; `0.0` on an empty run.
    pub fn mean_imbalance(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let mut r = Running::new();
        for f in &self.frames {
            r.push(f.imbalance);
        }
        r.mean()
    }

    /// Steady-state time: the sum of per-frame times over the reported
    /// (non-warm-up) frames. Speed-ups are computed on this, so the
    /// synthetic frame-0 pre-population burst (our steady-state bootstrap,
    /// which the paper's long-running animations do not have) cannot
    /// distort them. `0.0` on an empty run (the sum over nothing), which
    /// downstream speed-up math must treat as "no signal", not "infinitely
    /// fast" — see [`speedup_vs`](Self::speedup_vs).
    pub fn steady_time(&self) -> f64 {
        self.frames.iter().map(|f| f.frame_time).sum()
    }

    /// Speed-up of this run relative to a baseline time.
    ///
    /// Returns `0.0` — never NaN/∞ — when either side carries no signal:
    /// a zero or non-finite `total_time` (degraded run that never
    /// progressed) or a non-positive / non-finite baseline. NaN here would
    /// poison every table mean and the replay gates that hash them.
    pub fn speedup_vs(&self, baseline_time: f64) -> f64 {
        if self.total_time > 0.0
            && self.total_time.is_finite()
            && baseline_time > 0.0
            && baseline_time.is_finite()
        {
            baseline_time / self.total_time
        } else {
            0.0
        }
    }

    /// The per-phase breakdown table, if the run was instrumented.
    pub fn phase_table(&self) -> Option<String> {
        self.phases.as_ref().map(TraceReport::format_table)
    }

    /// Order-sensitive FNV-1a over every *run-output* field of the report,
    /// floats by bit pattern. Two reports fingerprint equal iff their run
    /// output is byte-identical — this is what the chaos matrix's replay
    /// gate compares, so no simulation-visible quantity (not even a
    /// diagnostic counter) may be exempt. The one deliberate exemption is
    /// [`phases`](Self::phases): the observability trace is a derived
    /// measurement *of* the run, and the quietness gate requires that
    /// attaching it never changes this value.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.label.as_bytes());
        mix(self.cluster.as_bytes());
        mix(&(self.calculators as u64).to_le_bytes());
        mix(&self.total_time.to_bits().to_le_bytes());
        mix(&(self.frames.len() as u64).to_le_bytes());
        for f in &self.frames {
            mix(&f.frame.to_le_bytes());
            mix(&f.alive.to_le_bytes());
            mix(&f.migrated.to_le_bytes());
            mix(&f.migration_bytes.to_le_bytes());
            mix(&f.balanced.to_le_bytes());
            mix(&f.frame_time.to_bits().to_le_bytes());
            mix(&f.imbalance.to_bits().to_le_bytes());
            mix(&f.checksum.to_le_bytes());
            mix(&f.timeouts.to_le_bytes());
        }
        mix(&self.traffic.messages.to_le_bytes());
        mix(&self.traffic.payload_bytes.to_le_bytes());
        for &(rank, frame) in &self.dead_ranks {
            mix(&(rank as u64).to_le_bytes());
            mix(&frame.to_le_bytes());
        }
        mix(&self.lost_particles.to_le_bytes());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            label: "FS-DLB".into(),
            cluster: "test".into(),
            calculators: 4,
            total_time: 2.0,
            frames: vec![
                FrameReport {
                    frame: 0,
                    alive: 100,
                    migrated: 10,
                    migration_bytes: 700,
                    ..Default::default()
                },
                FrameReport {
                    frame: 1,
                    alive: 200,
                    migrated: 20,
                    migration_bytes: 1400,
                    ..Default::default()
                },
            ],
            traffic: TrafficStats::default(),
            dead_ranks: Vec::new(),
            lost_particles: 0,
            phases: None,
            recoveries: Vec::new(),
        }
    }

    #[test]
    fn means() {
        let r = report();
        assert_eq!(r.mean_alive(), 150.0);
        assert_eq!(r.mean_migrated(), 15.0);
        assert!((r.mean_migration_kb() - 1050.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn speedup() {
        let r = report();
        assert_eq!(r.speedup_vs(8.0), 4.0);
        let empty = RunReport::default();
        assert_eq!(empty.speedup_vs(8.0), 0.0);
    }

    #[test]
    fn empty_run_accessors_are_finite_zero() {
        // A fully degraded run (every frame lost to crashes) reports no
        // frames; every mean must be exactly 0.0 — never NaN, which would
        // poison fingerprint-based replay gates downstream.
        let empty = RunReport::default();
        for v in [
            empty.mean_alive(),
            empty.mean_migrated(),
            empty.mean_migration_kb(),
            empty.mean_imbalance(),
            empty.steady_time(),
            empty.speedup_vs(8.0),
        ] {
            assert_eq!(v, 0.0);
            assert!(v.is_finite());
        }
    }

    #[test]
    fn speedup_never_produces_nan_or_infinity() {
        let mut r = report();
        // Degenerate baselines.
        assert_eq!(r.speedup_vs(0.0), 0.0);
        assert_eq!(r.speedup_vs(-1.0), 0.0);
        assert_eq!(r.speedup_vs(f64::NAN), 0.0);
        assert_eq!(r.speedup_vs(f64::INFINITY), 0.0);
        // Degenerate own time.
        r.total_time = 0.0;
        assert_eq!(r.speedup_vs(8.0), 0.0);
        r.total_time = f64::NAN;
        assert_eq!(r.speedup_vs(8.0), 0.0);
        r.total_time = f64::INFINITY;
        assert_eq!(r.speedup_vs(8.0), 0.0);
    }

    #[test]
    fn steady_time_sums_reported_frames() {
        let mut r = report();
        r.frames[0].frame_time = 1.5;
        r.frames[1].frame_time = 2.5;
        assert_eq!(r.steady_time(), 4.0);
    }

    #[test]
    fn fingerprint_is_total_over_fields() {
        let base = report();
        assert_eq!(base.fingerprint(), report().fingerprint());
        let tweak = |f: &mut dyn FnMut(&mut RunReport)| {
            let mut r = report();
            f(&mut r);
            r.fingerprint()
        };
        assert_ne!(base.fingerprint(), tweak(&mut |r| r.label.push('X')));
        assert_ne!(base.fingerprint(), tweak(&mut |r| r.total_time += 1e-9));
        assert_ne!(base.fingerprint(), tweak(&mut |r| r.frames[1].alive += 1));
        assert_ne!(base.fingerprint(), tweak(&mut |r| r.frames[0].timeouts += 1));
        assert_ne!(base.fingerprint(), tweak(&mut |r| r.dead_ranks.push((2, 7))));
        assert_ne!(base.fingerprint(), tweak(&mut |r| r.lost_particles += 1));
        assert_ne!(base.fingerprint(), tweak(&mut |r| r.traffic.messages += 1));
        // -0.0 and 0.0 are different bit patterns and must not collide.
        assert_ne!(base.fingerprint(), tweak(&mut |r| r.frames[0].frame_time = -0.0));
    }

    #[test]
    fn fingerprint_is_blind_to_the_phase_trace() {
        // The quietness gate's foundation: attaching (or dropping) the
        // observability trace must not move the fingerprint.
        let bare = report();
        let mut traced = report();
        let mut rec = psa_trace::Recorder::enabled(6, psa_trace::ClockKind::Virtual);
        rec.phase(0, 0, psa_trace::Phase::Compute, 1.0);
        traced.phases = rec.finish();
        assert!(traced.phases.is_some());
        assert_eq!(bare.fingerprint(), traced.fingerprint());
    }

    #[test]
    fn fingerprint_is_blind_to_recoveries() {
        // The recovery gate's foundation: a recovered run must fingerprint
        // identically to the uninterrupted run it replayed, so the recovery
        // log (like the phase trace) stays outside the fingerprint.
        let bare = report();
        let mut recovered = report();
        recovered.recoveries.push(RecoveryEvent {
            rank: 2,
            frame: 7,
            snapshot_frame: 5,
            frames_replayed: 2,
            particles_restored: 123,
            replay_virtual_secs: 0.25,
        });
        assert_eq!(bare.fingerprint(), recovered.fingerprint());
    }

    #[test]
    fn scale_count_rounds_to_nearest_instead_of_truncating() {
        // 7 lost scaled particles at scale 12.5 are 87.5 real particles;
        // the old truncating cast reported 87 and dropped one.
        assert_eq!(scale_count(7, 12.5), 88);
        assert_eq!(scale_count(3, 1.0 / 3.0), 1);
        // Exact multiples stay exact.
        assert_eq!(scale_count(10, 4.0), 40);
        assert_eq!(scale_count(0, 12.5), 0);
        // Scale 1.0 (no scaling) is the identity.
        assert_eq!(scale_count(41, 1.0), 41);
        // Degenerate scales saturate instead of wrapping or panicking.
        assert_eq!(scale_count(u64::MAX, 2.0), u64::MAX);
        assert_eq!(scale_count(5, f64::NAN), 0);
    }
}
