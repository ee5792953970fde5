//! The engine's degraded mode and rollback-replay recovery: frame-boundary
//! fault application, death declaration, and the frame-boundary
//! snapshot / restore / recover cycle (see [`crate::checkpoint`]).

use std::sync::Arc;

use psa_core::invariants;
use psa_core::DomainMap;
use psa_math::Scalar;
use psa_trace::{Counter, FaultKind, Recorder};

use super::super::calculator::Calculator;
use super::super::{space_for, Fabric, AXIS, BUCKETS};
use super::Engine;
use crate::checkpoint::{EngineSnapshot, RecoveryEvent};
use crate::msg::ProtocolError;

impl<F: Fabric> Engine<F> {
    /// Apply the injector's frame-boundary rank faults: fail-stop crashes
    /// take effect at the start of their frame; one-shot stalls charge
    /// their virtual seconds before the rank does anything else.
    pub(super) fn begin_frame(&mut self, frame: u64) {
        for c in 0..self.n {
            if self.crashed[c] {
                continue;
            }
            if !self.recovered[c] && self.net.crash_frame(c).is_some_and(|k| frame >= k) {
                self.crashed[c] = true;
                self.rec.fault(frame, c, FaultKind::Crash);
                continue;
            }
            let stall = self.net.stall_seconds(c, frame);
            if stall > 0.0 {
                self.net.advance(c, stall);
                self.rec.fault(frame, c, FaultKind::Stall);
            }
        }
    }

    /// The manager gives up on calculator `c`: confiscate its particles
    /// (lost with the rank), purge its in-flight queues, and collapse its
    /// slice toward the nearest alive neighbor so the partition invariant
    /// holds and the next `Domains` broadcast reassigns the space.
    pub(super) fn declare_dead(&mut self, c: usize, frame: u64) -> Result<(), ProtocolError> {
        self.crashed[c] = true;
        self.dead[c] = true;
        self.missed[c] = 0;
        self.dead_events.push((c, frame));
        self.rec.fault(frame, c, FaultKind::DeclaredDead);
        if (0..self.n).all(|r| self.dead[r]) {
            return Err(self.manager_error(
                frame,
                "every calculator is dead; no neighbor can absorb the load".into(),
            ));
        }
        let n_sys = self.scene.systems.len();
        for sys in 0..n_sys {
            self.lost += self.calcs[c].take_all(sys).len() as u64;
        }
        // Purge in-flight traffic both ways. Particle payloads queued
        // toward the rank were already counted lost at send time; anything
        // it sent pre-crash was consumed by the lock-step schedule.
        for r in 0..self.net.ranks() {
            if r != c {
                let _ = self.net.take_queued(c, r);
                let _ = self.net.take_queued(r, c);
            }
        }
        for sys in 0..n_sys {
            self.manager.collapse_dead(sys, c, &self.dead).map_err(|e| {
                self.manager_error(frame, format!("collapsing dead rank {c} slice: {e}"))
            })?;
            let space = space_for(&self.scene, &self.cfg, sys);
            invariants::check_partition(frame, sys, space, self.manager.domains(sys))?;
        }
        Ok(())
    }

    /// Capture a complete frame-boundary snapshot: per-system store
    /// contents, every domain map (the manager's authoritative copy and
    /// each calculator's replica — they diverge under static balancing with
    /// dead ranks), the degraded-mode sets, the frame cursor, and the
    /// fabric's wire/injector state. The frame-local timeout tally
    /// (`frame_timeouts`) is provably zero at a frame boundary and per-frame
    /// RNG re-derives from the frame cursor, so neither is captured — see
    /// [`crate::checkpoint`] for the full exclusion argument.
    ///
    /// Callers snapshot between [`Engine::step_frame`] calls (or let
    /// `cfg.checkpoint_interval` do it); a mid-phase snapshot is
    /// meaningless and unreachable from outside.
    pub fn snapshot(&self) -> EngineSnapshot {
        let n_sys = self.scene.systems.len();
        EngineSnapshot {
            next_frame: self.next_frame,
            round: self.manager.round(),
            prev_makespan: self.prev_makespan,
            lost: self.lost,
            idle_rounds: self.manager.idle_rounds(),
            crashed: self.crashed.clone(),
            dead: self.dead.clone(),
            missed: self.missed.clone(),
            dead_events: self.dead_events.clone(),
            mgr_cuts: (0..n_sys).map(|s| self.manager.domains(s).cuts().to_vec()).collect(),
            calcs: self.calcs.iter().map(Calculator::snapshot).collect(),
            fabric: self.net.save_fabric(),
        }
    }

    /// Rewind the engine to a previously captured snapshot.
    ///
    /// The engine must have been built from the same scene, config, and
    /// placement the snapshot was taken under (the session layer revives an
    /// evicted engine exactly this way: rebuild, then restore). Queued
    /// fabric messages are dropped; replay regenerates them.
    ///
    /// Total: a snapshot that does not fit this engine — wrong rank or
    /// system counts, a domain map of another width, a store with another
    /// bucket count or an inverted slice, a fabric part of another shape —
    /// returns `ProtocolError::Domain { role: "checkpoint", .. }` and
    /// leaves the engine and its fabric exactly as they were.
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), ProtocolError> {
        let (n, n_sys, buckets) = (self.n, self.scene.systems.len(), BUCKETS);
        let mgr = self.mgr;
        let shape_err = |detail: String| ProtocolError::Domain {
            role: "checkpoint",
            rank: mgr,
            frame: snap.next_frame,
            detail,
        };
        if snap.calcs.len() != n
            || snap.crashed.len() != n
            || snap.dead.len() != n
            || snap.missed.len() != n
            || snap.idle_rounds.len() != n_sys
            || snap.mgr_cuts.len() != n_sys
        {
            return Err(shape_err(format!(
                "snapshot shape mismatch: {} calculators / {} systems captured, engine has {n} / {n_sys}",
                snap.calcs.len(),
                snap.mgr_cuts.len(),
            )));
        }
        for (c, cs) in snap.calcs.iter().enumerate() {
            if cs.stores.len() != n_sys
                || cs.cuts.len() != n_sys
                || cs.compute_time.len() != n_sys
                || cs.pre_count.len() != n_sys
            {
                return Err(shape_err(format!(
                    "snapshot calculator {c} covers {} systems, engine has {n_sys}",
                    cs.stores.len(),
                )));
            }
            for s in &cs.stores {
                let (lo, hi) = (s.slice.lo, s.slice.hi);
                if s.buckets != buckets || lo.is_nan() || hi.is_nan() || lo > hi {
                    return Err(shape_err(format!(
                        "snapshot calculator {c} has a {}-bucket store over [{lo}, {hi}); \
                         engine stores have {buckets} buckets over an ordered slice",
                        s.buckets,
                    )));
                }
            }
        }
        let parse = |what: String, cuts: &[Scalar]| {
            let detail = match DomainMap::from_cuts(AXIS, cuts.to_vec()) {
                Ok(dm) if dm.len() == n => return Ok(dm),
                Ok(dm) => format!("{} slices for {n} calculators", dm.len()),
                Err(e) => e.to_string(),
            };
            Err(shape_err(format!("restoring {what}: {detail}")))
        };
        let mgr_domains = (snap.mgr_cuts.iter().enumerate())
            .map(|(sys, cuts)| parse(format!("manager domains for system {sys}"), cuts))
            .collect::<Result<Vec<_>, _>>()?;
        let mut calc_domains = Vec::with_capacity(self.n);
        for (c, cs) in snap.calcs.iter().enumerate() {
            calc_domains.push(
                (cs.cuts.iter().enumerate())
                    .map(|(sys, cuts)| {
                        parse(format!("calculator {c} domains for system {sys}"), cuts)
                            .map(Arc::new)
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            );
        }
        // The fabric checks its own part before it writes anything; once it
        // has loaded, every input is validated and nothing below can fail.
        self.net
            .load_fabric(&snap.fabric)
            .map_err(|e| shape_err(format!("restoring the fabric: {e}")))?;
        self.manager.restore(mgr_domains, snap.round, &snap.idle_rounds);
        for ((calc, cs), domains) in self.calcs.iter_mut().zip(&snap.calcs).zip(calc_domains) {
            calc.restore(cs, domains, &snap.idle_rounds);
        }
        self.next_frame = snap.next_frame;
        self.prev_makespan = snap.prev_makespan;
        self.lost = snap.lost;
        self.crashed.clone_from(&snap.crashed);
        self.dead.clone_from(&snap.dead);
        self.missed.clone_from(&snap.missed);
        self.dead_events.clone_from(&snap.dead_events);
        // The frame-local tally is zero at every frame boundary.
        self.frame_timeouts = 0;
        if self.rec.is_enabled() {
            self.frame_stats_mark = self.net.stats();
        }
        Ok(())
    }

    /// Whole-engine rollback-replay recovery (`cfg.checkpoint_interval > 0`):
    /// restore the last snapshot — which resurrects every rank that crashed
    /// after it — and deterministically re-run the frames up to `frame`
    /// with the trace and recorder suppressed, then re-apply the current
    /// frame's boundary faults. Replay regenerates byte-identical state
    /// *and* virtual time (the clocks rewind and recharge), so the finished
    /// run fingerprints exactly like an uninterrupted one; what recovery
    /// actually cost is reported separately as [`RecoveryEvent`]s.
    pub(super) fn recover_crashed(&mut self, frame: u64) -> Result<(), ProtocolError> {
        let Some(snap) = self.last_snapshot.clone() else {
            return Ok(());
        };
        // Ranks that crashed after the snapshot can be resurrected; a rank
        // already crashed *in* the snapshot cannot (its state predates every
        // surviving checkpoint) and stays degraded. Both sets are marked
        // recovered so the planned crash — a permanent plan entry — never
        // re-trips and recovery never re-runs for them.
        let victims: Vec<usize> = (0..self.n)
            .filter(|&c| self.crashed[c] && !self.dead[c] && !self.recovered[c] && !snap.crashed[c])
            .collect();
        for c in 0..self.n {
            if self.crashed[c] && !self.dead[c] {
                self.recovered[c] = true;
            }
        }
        if victims.is_empty() {
            return Ok(());
        }
        let particles_restored: Vec<u64> = victims
            .iter()
            .map(|&c| snap.calcs[c].stores.iter().map(|s| s.particles.len() as u64).sum())
            .collect();
        self.restore(&snap)?;
        let mk0 = self.net.makespan();
        // Replay quietly: the trace and recorder must describe the run
        // once, not the rolled-back window twice (the stand-in trace's
        // tally still checks each replayed frame's order).
        let saved_trace = std::mem::take(&mut self.trace);
        let saved_rec = std::mem::replace(&mut self.rec, Recorder::disabled());
        let mut replayed = 0u64;
        let mut replay_result = Ok(());
        while self.next_frame < frame {
            match self.step_frame() {
                Ok(_) => replayed += 1,
                Err(e) => {
                    replay_result = Err(e);
                    break;
                }
            }
        }
        self.trace = saved_trace;
        self.rec = saved_rec;
        replay_result?;
        // Re-apply the current frame's boundary faults the rollback wiped
        // (stalls on healthy ranks; the victims now skip their crash via
        // the recovered flag). Quiet: the pre-rollback begin_frame already
        // recorded these fault events once.
        let saved_rec = std::mem::replace(&mut self.rec, Recorder::disabled());
        self.begin_frame(frame);
        self.rec = saved_rec;
        let replay_virtual_secs = self.net.makespan() - mk0;
        self.rec.add(frame, Counter::Restores, 1);
        if self.rec.is_enabled() {
            self.frame_stats_mark = self.net.stats();
        }
        for (&rank, &restored) in victims.iter().zip(&particles_restored) {
            self.recoveries.push(RecoveryEvent {
                rank,
                frame,
                snapshot_frame: snap.next_frame,
                frames_replayed: replayed,
                particles_restored: restored,
                replay_virtual_secs,
            });
        }
        Ok(())
    }
}
