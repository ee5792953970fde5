//! Machine-readable recovery-cost export (`BENCH_8.json`).
//!
//! The checkpoint/restore machinery (`psa_runtime::checkpoint`) claims
//! that recovering a crashed calculator from the last periodic snapshot
//! is strictly cheaper than the old restart-from-frame-0 behaviour. This
//! export measures that claim instead of asserting it: for every
//! (calculators, snapshot interval, crash frame) cell it runs the snow
//! workload twice —
//!
//! * **bare** — no faults, no checkpointing: the uninterrupted reference
//!   whose per-frame virtual times price what a restart would redo.
//!   `restart_cost` is the sum of frame times `0..crash_frame`: the
//!   virtual seconds a restart-from-zero throws away and pays again;
//! * **recovered** — the same seed with calculator 1 fail-stopping at
//!   `crash_frame`, checkpointing every `interval` frames
//!   ([`RunConfig::checkpoint_interval`]). The engine
//!   rolls back to the last snapshot and replays; `recovery_cost` is the
//!   [`RecoveryEvent`]'s `replay_virtual_secs` — the only work redone.
//!
//! Cells whose crash lands *before* the first snapshot (`crash_frame <
//! interval`) have nothing to restore and degrade exactly as the
//! pre-recovery runtime did; they are kept in the export (flagged
//! `recovered: false`) because they price the boundary the interval knob
//! buys. For every other cell [`Export::validate`] enforces the
//! headline gate: the recovered run fingerprints byte-identical to the
//! bare one, loses nothing, and `recovery_cost < restart_cost` strictly.
//!
//! [`RecoveryEvent`]: psa_runtime::RecoveryEvent

use netsim::FaultPlan;
use psa_desim::EventSim;
use psa_runtime::{RunConfig, RunReport};
use psa_workloads::{myrinet_gcc, snow_scene, WorkloadSize};

use crate::export::timed;
use crate::json::Json;
use crate::{json_fields, obj, Export};

/// The rank the fault plan kills (always a calculator; rank 0 hosts the
/// first calculator too, but killing rank 1 keeps the victim unambiguous).
pub const BENCH8_VICTIM: usize = 1;

/// One (calculators, interval, crash_frame) recovery measurement.
#[derive(Clone, Debug)]
pub struct Bench8Cell {
    /// Calculator processes in the cluster.
    pub calculators: usize,
    /// Snapshot cadence in frames.
    pub interval: u64,
    /// Frame at which calculator [`BENCH8_VICTIM`] fail-stops.
    pub crash_frame: u64,
    /// Did the engine recover (a snapshot existed when the crash tripped)?
    pub recovered: bool,
    /// Frame of the restoring snapshot (0 when not recovered).
    pub snapshot_frame: u64,
    /// Frames deterministically replayed to catch back up.
    pub frames_replayed: u64,
    /// Particles the snapshot restored onto the victim.
    pub particles_restored: u64,
    /// Virtual seconds of work redone during the replay.
    pub recovery_cost: f64,
    /// Virtual seconds a restart-from-frame-0 would redo (bare frame
    /// times summed over `0..crash_frame`).
    pub restart_cost: f64,
    /// Virtual seconds the checkpoint policy saved (`restart - recovery`;
    /// negative would fail validation for recovered cells).
    pub saved: f64,
    /// Recovered run's fingerprint equals the uninterrupted run's.
    pub fingerprint_ok: bool,
    /// Particles the crashed run lost (0 when recovered).
    pub lost_particles: u64,
    /// Ranks declared dead in the crashed run (0 when recovered).
    pub dead_ranks: usize,
    /// Host seconds both runs of the cell took.
    pub wall_seconds: f64,
}

/// Everything `BENCH_8.json` carries.
pub struct Bench8Export {
    pub frames: u64,
    pub particles_per_system: usize,
    pub seed: u64,
    pub calculators: Vec<usize>,
    pub intervals: Vec<u64>,
    pub crash_frames: Vec<u64>,
    pub cells: Vec<Bench8Cell>,
}

fn size(particles_per_system: usize) -> WorkloadSize {
    WorkloadSize { systems: 2, particles_per_system, scale: 25.0 }
}

fn run_config(frames: u64, seed: u64) -> RunConfig {
    RunConfig { frames, dt: 0.1, seed, warmup: 0, ..Default::default() }
}

/// Bare reference run for one calculator count: no faults, no checkpoints.
fn bare_run(calculators: usize, frames: u64, particles: usize, seed: u64) -> RunReport {
    let sz = size(particles);
    let cluster = myrinet_gcc(calculators, 1);
    EventSim::new(snow_scene(sz), run_config(frames, seed), cluster, sz.cost_model()).run()
}

fn run_cell(
    bare: &RunReport,
    calculators: usize,
    interval: u64,
    crash_frame: u64,
    frames: u64,
    particles: usize,
    seed: u64,
) -> Bench8Cell {
    let sz = size(particles);
    let cluster = myrinet_gcc(calculators, 1);
    let mut plan = FaultPlan::none(seed, calculators + 2);
    plan.rank_mut(BENCH8_VICTIM).crash_at = Some(crash_frame);
    let cfg = RunConfig { checkpoint_interval: interval, ..run_config(frames, seed) };

    let (report, wall) = timed(|| {
        EventSim::new(snow_scene(sz), cfg, cluster, sz.cost_model()).with_faults(plan).run()
    });

    // What restart-from-zero would redo: every bare frame before the crash.
    let restart_cost: f64 =
        bare.frames.iter().take(crash_frame as usize).map(|f| f.frame_time).sum();
    // `+ 0.0` normalizes the empty sum's -0.0 so the JSON never carries a
    // signed zero.
    let recovery_cost: f64 =
        report.recoveries.iter().map(|e| e.replay_virtual_secs).sum::<f64>() + 0.0;
    let recovered = !report.recoveries.is_empty();

    Bench8Cell {
        calculators,
        interval,
        crash_frame,
        recovered,
        snapshot_frame: report.recoveries.first().map_or(0, |e| e.snapshot_frame),
        frames_replayed: report.recoveries.iter().map(|e| e.frames_replayed).sum(),
        particles_restored: report.recoveries.iter().map(|e| e.particles_restored).sum(),
        recovery_cost,
        restart_cost,
        saved: restart_cost - recovery_cost,
        fingerprint_ok: report.fingerprint() == bare.fingerprint(),
        lost_particles: report.lost_particles,
        dead_ranks: report.dead_ranks.len(),
        wall_seconds: wall,
    }
}

/// Run the sweep and assemble the export. The bare reference is priced
/// once per calculator count and shared by every (interval, crash) cell.
pub fn collect8(
    calculators: &[usize],
    intervals: &[u64],
    crash_frames: &[u64],
    frames: u64,
    particles_per_system: usize,
    seed: u64,
) -> Bench8Export {
    let mut cells = Vec::new();
    for &n in calculators {
        let bare = bare_run(n, frames, particles_per_system, seed);
        for &interval in intervals {
            for &crash in crash_frames {
                cells.push(run_cell(&bare, n, interval, crash, frames, particles_per_system, seed));
            }
        }
    }
    Bench8Export {
        frames,
        particles_per_system,
        seed,
        calculators: calculators.to_vec(),
        intervals: intervals.to_vec(),
        crash_frames: crash_frames.to_vec(),
        cells,
    }
}

impl Export for Bench8Export {
    /// Reject empty sweeps, a sweep that never exercised a recovery
    /// (non-finite costs are the writer's rule), and — the headline gate — any cell whose crash fell at
    /// or past the first snapshot yet failed to recover byte-identically
    /// for strictly less than a restart.
    fn validate(&self) -> Result<(), String> {
        if self.calculators.is_empty() || self.intervals.is_empty() || self.crash_frames.is_empty()
        {
            return Err("empty sweep axis".into());
        }
        if self.intervals.contains(&0) {
            return Err("interval 0 disables checkpointing and prices nothing".into());
        }
        if let Some(&c) = self.crash_frames.iter().find(|&&c| c == 0 || c >= self.frames) {
            return Err(format!("crash frame {c} outside the {}-frame run", self.frames));
        }
        let expected = self.calculators.len() * self.intervals.len() * self.crash_frames.len();
        if self.cells.len() != expected {
            return Err(format!("expected {expected} cells, got {}", self.cells.len()));
        }
        if !self.cells.iter().any(|c| c.crash_frame >= c.interval) {
            return Err(
                "sweep never exercised a recovery (every crash precedes its first snapshot)".into(),
            );
        }
        for c in &self.cells {
            let cell =
                format!("cell {}c interval {} crash@{}", c.calculators, c.interval, c.crash_frame);
            if c.restart_cost <= 0.0 {
                return Err(format!("{cell}: restart cost {} is degenerate", c.restart_cost));
            }
            if c.crash_frame >= c.interval {
                // A snapshot existed: the crash must have been absorbed.
                if !c.recovered {
                    return Err(format!("{cell}: snapshot existed but the engine never recovered"));
                }
                if !c.fingerprint_ok {
                    return Err(format!("{cell}: recovered run diverged from the bare run"));
                }
                if c.lost_particles != 0 || c.dead_ranks != 0 {
                    return Err(format!(
                        "{cell}: recovery left {} lost particles, {} dead ranks",
                        c.lost_particles, c.dead_ranks
                    ));
                }
                if c.snapshot_frame != (c.crash_frame / c.interval) * c.interval {
                    return Err(format!(
                        "{cell}: snapshot frame {} off the interval cadence",
                        c.snapshot_frame
                    ));
                }
                if c.snapshot_frame + c.frames_replayed != c.crash_frame {
                    return Err(format!(
                        "{cell}: inconsistent window (snapshot {} + replayed {})",
                        c.snapshot_frame, c.frames_replayed
                    ));
                }
                if c.particles_restored == 0 {
                    return Err(format!("{cell}: snapshot restored an empty store"));
                }
                // The headline: replaying the tail must beat redoing the head.
                if c.recovery_cost >= c.restart_cost {
                    return Err(format!(
                        "{cell}: recovery ({:.6}s) did not beat restart-from-0 ({:.6}s)",
                        c.recovery_cost, c.restart_cost
                    ));
                }
            } else {
                // Crash before the first snapshot: the old degraded world.
                if c.recovered || c.recovery_cost != 0.0 {
                    return Err(format!("{cell}: recovered without a snapshot to restore"));
                }
                if c.dead_ranks == 0 || c.lost_particles == 0 {
                    return Err(format!(
                        "{cell}: pre-snapshot crash must degrade ({} dead, {} lost)",
                        c.dead_ranks, c.lost_particles
                    ));
                }
            }
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        obj! {
            "bench": 8u64,
            "run": obj! {
                "frames": self.frames,
                "particles_per_system": self.particles_per_system,
                "seed": self.seed,
                "victim_rank": BENCH8_VICTIM,
            },
            "calculators": &self.calculators,
            "intervals": &self.intervals,
            "crash_frames": &self.crash_frames,
            "cells": &self.cells,
        }
    }
}

json_fields!(
    Bench8Cell; calculators, interval, crash_frame, recovered, snapshot_frame, frames_replayed,
    particles_restored, recovery_cost, restart_cost, saved, fingerprint_ok, lost_particles,
    dead_ranks, wall_seconds
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_validates() {
        let data = collect8(&[4], &[2, 3], &[2, 5, 7], 8, 300, 0xBE7C_0008);
        assert_eq!(data.cells.len(), 6);
        data.validate().unwrap_or_else(|e| panic!("BENCH_8 smoke sweep invalid: {e}"));
        // The boundary cells are present on both sides: crash@2 under
        // interval 3 degrades (no snapshot yet), under interval 2 recovers.
        let degraded = data
            .cells
            .iter()
            .find(|c| c.interval == 3 && c.crash_frame == 2)
            .expect("boundary cell");
        assert!(!degraded.recovered);
        let boundary = data
            .cells
            .iter()
            .find(|c| c.interval == 2 && c.crash_frame == 2)
            .expect("on-cadence cell");
        assert!(boundary.recovered);
        assert_eq!(boundary.frames_replayed, 0, "crash on the snapshot frame replays nothing");
        // Every crash before its first snapshot: nothing was priced.
        let unexercised = collect8(&[4], &[4], &[2], 8, 300, 0xBE7C_0008);
        assert!(unexercised.validate().is_err(), "a sweep without one recovery must fail");
        let mut nan = data;
        nan.cells[0].saved = f64::NAN;
        assert!(nan.checked_json().is_err(), "NaN must never reach the file");
    }

    #[test]
    fn recovery_beats_restart_past_the_first_interval() {
        let data = collect8(&[4], &[2], &[5, 7], 8, 300, 0xBE7C_0008);
        for c in &data.cells {
            assert!(c.recovered, "crash@{} with interval 2 must recover", c.crash_frame);
            assert!(
                c.recovery_cost < c.restart_cost,
                "crash@{}: recovery {:.6}s vs restart {:.6}s",
                c.crash_frame,
                c.recovery_cost,
                c.restart_cost
            );
            assert!(c.saved > 0.0);
        }
        // Deeper crashes waste more on a restart, and the recovery saving
        // grows with them (the replay window is bounded by the interval).
        assert!(data.cells[1].restart_cost > data.cells[0].restart_cost);
        assert!(data.cells[1].saved > data.cells[0].saved);
    }

    #[test]
    fn json_shape_is_stable() {
        let data = collect8(&[4], &[2], &[5], 8, 200, 7);
        let json = data.checked_json().expect("smoke export must validate and render");
        assert!(json.starts_with("{\n  \"bench\": 8,\n"), "{json}");
        assert!(json.contains("\"victim_rank\": 1"));
        assert!(json.contains("\"recovery_cost\""));
        assert!(json.contains("\"restart_cost\""));
        assert_eq!(json.matches("\"crash_frame\":").count(), 1);
    }
}
