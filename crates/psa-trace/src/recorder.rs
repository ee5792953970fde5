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

/// Number of counters (array dimension of [`crate::FrameCounters`]).
pub const COUNTER_COUNT: usize = 10;

/// Every counter, in export order.
pub const COUNTERS: [Counter; COUNTER_COUNT] = [
    Counter::Messages,
    Counter::PayloadBytes,
    Counter::Migrated,
    Counter::MigrationBytes,
    Counter::SendRetries,
    Counter::Timeouts,
    Counter::BalanceOrders,
    Counter::BalanceSkips,
    Counter::Snapshots,
    Counter::Restores,
];

impl Counter {
    /// Stable snake-case name used in tables and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Messages => "messages",
            Counter::PayloadBytes => "payload_bytes",
            Counter::Migrated => "migrated",
            Counter::MigrationBytes => "migration_bytes",
            Counter::SendRetries => "send_retries",
            Counter::Timeouts => "timeouts",
            Counter::BalanceOrders => "balance_orders",
            Counter::BalanceSkips => "balance_skips",
            Counter::Snapshots => "snapshots",
            Counter::Restores => "restores",
        }
    }
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

    /// Add `seconds` to `rank`'s accumulator for `phase` in `frame`.
    ///
    /// A write to a rank outside `0..ranks` is dropped, never a panic:
    /// the recorder must not disturb the run it measures.
    #[inline]
    pub fn phase(&mut self, frame: u64, rank: usize, phase: Phase, seconds: f64) {
        let Some(rep) = &mut self.inner else { return };
        let cell = Self::frame_mut(rep, frame)
            .and_then(|fr| fr.rank_phase.get_mut(rank))
            .and_then(|row| row.get_mut(phase.index()));
        if let Some(cell) = cell {
            *cell += seconds;
        }
    }

    /// Add `n` to `counter` for `frame`.
    #[inline]
    pub fn add(&mut self, frame: u64, counter: Counter, n: u64) {
        if let Some(rep) = &mut self.inner {
            if n == 0 {
                return;
            }
            if let Some(fr) = Self::frame_mut(rep, frame) {
                fr.counters.add(counter, n);
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
        assert_eq!(rep.frames[0].counters.get(Counter::Migrated), 10);
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
        // The recorder has no error to return: the write is dropped.
        let mut r = Recorder::enabled(2, ClockKind::Virtual);
        r.phase(0, 7, Phase::Compute, 1.0);
        r.phase(0, 1, Phase::Compute, 2.0);
        let rep = r.finish().expect("enabled");
        assert_eq!(rep.frames.len(), 1);
        assert_eq!(rep.frames[0].rank_phase[1][Phase::Compute.index()], 2.0);
        assert_eq!(rep.frames[0].rank_phase[0][Phase::Compute.index()], 0.0);
    }

    #[test]
    fn counters_are_dense_ordered_and_uniquely_named() {
        for (i, c) in COUNTERS.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        let mut names: Vec<&str> = COUNTERS.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT);
    }

    #[test]
    fn zero_count_adds_do_not_materialize_frames() {
        let mut r = Recorder::enabled(1, ClockKind::Wall);
        r.add(5, Counter::Timeouts, 0);
        let rep = r.finish().expect("enabled");
        assert!(rep.frames.is_empty());
    }
}
