//! The recording surface the executors talk to.
//!
//! A [`Recorder`] is either *disabled* — every call is a no-op and
//! [`Recorder::finish`] yields `None` — or *enabled*, in which case it
//! accumulates per-rank per-phase timings and per-frame counters into a
//! [`TraceReport`]. Either way it is strictly write-only from the
//! simulation's point of view: it never advances a clock, never draws
//! RNG, never sends a message. That is the quietness guarantee the
//! fingerprint-equality tests enforce.

use crate::clock::ClockKind;
use crate::phase::Phase;
use crate::report::{FrameTrace, TraceReport};
use std::fmt;

/// Typed failure of the fallible recording surface.
///
/// The recorder never panics on malformed coordinates: callers that care
/// use [`Recorder::try_phase`] and get one of these back, callers that
/// don't use [`Recorder::phase`] and the write is dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The frame slot could not be materialized (frame index outside the
    /// dense storage after backfill — not reachable through the public
    /// API, but the accessor refuses rather than panics).
    FrameUnavailable {
        /// Frame that was requested.
        frame: u64,
    },
    /// `rank` is outside the report's configured `0..ranks` range.
    RankOutOfRange {
        /// Rank that was requested.
        rank: usize,
        /// Ranks the report covers.
        ranks: usize,
    },
    /// The phase index is outside the per-rank phase table (not producible
    /// by [`Phase::index`], but the accessor refuses rather than panics).
    PhaseOutOfRange {
        /// Index that was requested.
        phase: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::FrameUnavailable { frame } => {
                write!(f, "frame {frame} slot unavailable")
            }
            TraceError::RankOutOfRange { rank, ranks } => {
                write!(f, "rank {rank} out of range (ranks={ranks})")
            }
            TraceError::PhaseOutOfRange { phase } => {
                write!(f, "phase index {phase} out of range")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Per-frame event counters the executors feed the recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Messages delivered by the transport.
    Messages,
    /// Payload bytes carried by those messages.
    PayloadBytes,
    /// Particles that crossed a domain boundary in the exchange phase.
    Migrated,
    /// Bytes of migrated particle payload.
    MigrationBytes,
    /// Transient send failures that were retried with backoff.
    SendRetries,
    /// Bounded receives that expired against a crashed-but-undeclared peer.
    Timeouts,
    /// Transfer orders issued by the balancer.
    BalanceOrders,
    /// Balance rounds short-circuited by the zero-order hysteresis.
    BalanceSkips,
    /// Engine checkpoints taken at this frame boundary.
    Snapshots,
    /// Crash recoveries performed (rollback to a snapshot plus replay).
    Restores,
}

/// What kind of injected fault an event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail-stop crash took effect at a frame boundary.
    Crash,
    /// One-shot stall charged its seconds at a frame boundary.
    Stall,
    /// The manager gave up on the rank and collapsed its slice.
    DeclaredDead,
}

impl FaultKind {
    /// Stable name used in tables and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Stall => "stall",
            FaultKind::DeclaredDead => "declared_dead",
        }
    }
}

/// One injected-fault observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Frame at which the fault took effect.
    pub frame: u64,
    /// Rank the fault hit.
    pub rank: usize,
    /// What happened.
    pub kind: FaultKind,
}

/// Accumulates a [`TraceReport`], or does nothing at all.
#[derive(Clone, Debug)]
pub struct Recorder {
    inner: Option<TraceReport>,
}

impl Recorder {
    /// A recorder that ignores everything. `finish()` yields `None`.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder for `ranks` ranks timed by `clock`.
    pub fn enabled(ranks: usize, clock: ClockKind) -> Self {
        Recorder {
            inner: Some(TraceReport { clock, ranks, frames: Vec::new(), faults: Vec::new() }),
        }
    }

    /// Whether measurements are being kept. Executors use this to skip
    /// clock snapshots entirely on the disabled path.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Ensure a `FrameTrace` exists for `frame` and return it.
    ///
    /// Frames are stored densely by index; recording frame `k` materializes
    /// empty traces for any earlier frames not yet seen, so a trace always
    /// covers `0..=last_recorded_frame` in order.
    fn frame_mut(rep: &mut TraceReport, frame: u64) -> Option<&mut FrameTrace> {
        let idx = frame as usize;
        while rep.frames.len() <= idx {
            let f = rep.frames.len() as u64;
            rep.frames.push(FrameTrace::empty(f, rep.ranks));
        }
        rep.frames.get_mut(idx)
    }

    /// Add `seconds` to `rank`'s accumulator for `phase` in `frame`,
    /// reporting malformed coordinates instead of panicking or dropping.
    ///
    /// Always `Ok` on a disabled recorder (there is nothing to validate
    /// against, and the disabled path must stay a true no-op).
    pub fn try_phase(
        &mut self,
        frame: u64,
        rank: usize,
        phase: Phase,
        seconds: f64,
    ) -> Result<(), TraceError> {
        let Some(rep) = &mut self.inner else { return Ok(()) };
        let ranks = rep.ranks;
        let fr = Self::frame_mut(rep, frame).ok_or(TraceError::FrameUnavailable { frame })?;
        let row = fr.rank_phase.get_mut(rank).ok_or(TraceError::RankOutOfRange { rank, ranks })?;
        let cell = row
            .get_mut(phase.index())
            .ok_or(TraceError::PhaseOutOfRange { phase: phase.index() })?;
        *cell += seconds;
        Ok(())
    }

    /// Add `seconds` to `rank`'s accumulator for `phase` in `frame`.
    ///
    /// Infallible wrapper over [`try_phase`](Self::try_phase): a write with
    /// malformed coordinates is dropped, matching the recorder's "never
    /// disturb the run" contract for callers on the hot path.
    #[inline]
    pub fn phase(&mut self, frame: u64, rank: usize, phase: Phase, seconds: f64) {
        let _ = self.try_phase(frame, rank, phase, seconds);
    }

    /// Add `n` to `counter` for `frame`.
    #[inline]
    pub fn add(&mut self, frame: u64, counter: Counter, n: u64) {
        if let Some(rep) = &mut self.inner {
            if n == 0 {
                return;
            }
            let Some(fr) = Self::frame_mut(rep, frame) else { return };
            let c = &mut fr.counters;
            match counter {
                Counter::Messages => c.messages += n,
                Counter::PayloadBytes => c.payload_bytes += n,
                Counter::Migrated => c.migrated += n,
                Counter::MigrationBytes => c.migration_bytes += n,
                Counter::SendRetries => c.send_retries += n,
                Counter::Timeouts => c.timeouts += n,
                Counter::BalanceOrders => c.balance_orders += n,
                Counter::BalanceSkips => c.balance_skips += n,
                Counter::Snapshots => c.snapshots += n,
                Counter::Restores => c.restores += n,
            }
        }
    }

    /// Record an injected-fault observation.
    #[inline]
    pub fn fault(&mut self, frame: u64, rank: usize, kind: FaultKind) {
        if let Some(rep) = &mut self.inner {
            rep.faults.push(FaultEvent { frame, rank, kind });
        }
    }

    /// Consume the recorder; `Some` iff it was enabled.
    pub fn finish(self) -> Option<TraceReport> {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PHASE_COUNT;

    #[test]
    fn disabled_recorder_yields_nothing() {
        let mut r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.phase(0, 0, Phase::Compute, 1.0);
        r.add(0, Counter::Messages, 5);
        r.fault(0, 0, FaultKind::Crash);
        assert!(r.finish().is_none());
    }

    #[test]
    fn enabled_recorder_accumulates() {
        let mut r = Recorder::enabled(2, ClockKind::Virtual);
        assert!(r.is_enabled());
        r.phase(0, 0, Phase::Compute, 1.5);
        r.phase(0, 0, Phase::Compute, 0.5);
        r.phase(0, 1, Phase::Exchange, 2.0);
        r.add(0, Counter::Migrated, 7);
        r.add(0, Counter::Migrated, 3);
        r.fault(0, 1, FaultKind::Stall);
        let rep = r.finish().expect("enabled");
        assert_eq!(rep.ranks, 2);
        assert_eq!(rep.clock, ClockKind::Virtual);
        assert_eq!(rep.frames.len(), 1);
        assert_eq!(rep.frames[0].rank_phase[0][Phase::Compute.index()], 2.0);
        assert_eq!(rep.frames[0].rank_phase[1][Phase::Exchange.index()], 2.0);
        assert_eq!(rep.frames[0].counters.migrated, 10);
        assert_eq!(rep.faults, vec![FaultEvent { frame: 0, rank: 1, kind: FaultKind::Stall }]);
    }

    #[test]
    fn frames_are_dense_and_ordered() {
        let mut r = Recorder::enabled(1, ClockKind::Virtual);
        r.phase(3, 0, Phase::Render, 1.0);
        r.phase(1, 0, Phase::Compute, 1.0);
        let rep = r.finish().expect("enabled");
        assert_eq!(rep.frames.len(), 4);
        for (i, f) in rep.frames.iter().enumerate() {
            assert_eq!(f.frame, i as u64);
            assert_eq!(f.rank_phase.len(), 1);
            assert_eq!(f.rank_phase[0].len(), PHASE_COUNT);
        }
    }

    #[test]
    fn out_of_range_rank_is_a_typed_error_not_a_panic() {
        let mut r = Recorder::enabled(2, ClockKind::Virtual);
        assert_eq!(
            r.try_phase(0, 7, Phase::Compute, 1.0),
            Err(TraceError::RankOutOfRange { rank: 7, ranks: 2 })
        );
        // The infallible wrapper drops the write instead of panicking.
        r.phase(0, 7, Phase::Compute, 1.0);
        r.phase(0, 1, Phase::Compute, 2.0);
        let rep = r.finish().expect("enabled");
        assert_eq!(rep.frames.len(), 1);
        assert_eq!(rep.frames[0].rank_phase[1][Phase::Compute.index()], 2.0);
        assert_eq!(rep.frames[0].rank_phase[0][Phase::Compute.index()], 0.0);
    }

    #[test]
    fn disabled_recorder_try_phase_is_ok() {
        let mut r = Recorder::disabled();
        // Nothing to validate against: the disabled path stays a no-op.
        assert_eq!(r.try_phase(0, 99, Phase::Render, 1.0), Ok(()));
        assert!(r.finish().is_none());
    }

    #[test]
    fn trace_error_messages_name_the_coordinates() {
        assert_eq!(
            TraceError::RankOutOfRange { rank: 7, ranks: 2 }.to_string(),
            "rank 7 out of range (ranks=2)"
        );
        assert_eq!(
            TraceError::FrameUnavailable { frame: 3 }.to_string(),
            "frame 3 slot unavailable"
        );
        assert_eq!(
            TraceError::PhaseOutOfRange { phase: 9 }.to_string(),
            "phase index 9 out of range"
        );
    }

    #[test]
    fn zero_count_adds_do_not_materialize_frames() {
        let mut r = Recorder::enabled(1, ClockKind::Wall);
        r.add(5, Counter::Timeouts, 0);
        let rep = r.finish().expect("enabled");
        assert!(rep.frames.is_empty());
    }
}
