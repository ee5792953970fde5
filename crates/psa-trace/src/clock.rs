//! The two clocks of the two-clock rule.
//!
//! The deterministic executor measures phases in *virtual seconds* — the
//! same per-rank clocks netsim advances — so instrumented runs are
//! bit-exact across machines. The threaded executor measures real elapsed
//! time and therefore lives behind the same wall-clock escape hatch as the
//! executor itself. Nothing in this module ever *advances* a simulation
//! clock; recorders only read.

use std::time::Instant;

/// Which clock produced the timings in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockKind {
    /// Virtual seconds from the deterministic executor's per-rank clocks.
    Virtual,
    /// Real elapsed seconds from the threaded executor.
    Wall,
}

impl ClockKind {
    /// Stable name used in tables and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            ClockKind::Virtual => "virtual",
            ClockKind::Wall => "wall",
        }
    }
}

/// A read-only view over an externally advanced virtual clock.
///
/// The deterministic executor snapshots `netsim::WireState::now(rank)`
/// before and after each phase; this type just carries the snapshot and
/// produces the delta. It holds no state of its own so it can never drift
/// from the simulation.
#[derive(Clone, Copy, Debug)]
pub struct VirtualClock {
    start: f64,
}

impl VirtualClock {
    /// Begin a measurement at `now` virtual seconds.
    #[inline]
    pub fn start(now: f64) -> Self {
        VirtualClock { start: now }
    }

    /// Elapsed virtual seconds given the clock's current reading.
    ///
    /// Clamped at zero: a rank that did not participate in a phase keeps
    /// its clock still, and tiny negative deltas must not appear if a
    /// caller snapshots ranks in a different order than it finishes them.
    #[inline]
    pub fn elapsed(self, now: f64) -> f64 {
        (now - self.start).max(0.0)
    }
}

/// Wall-clock stopwatch for the threaded executor.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Begin a measurement now.
    #[inline]
    pub fn start() -> Self {
        WallClock { start: Instant::now() } // psa-verify: allow(wall-clock)
    }

    /// Real seconds since `start`.
    #[inline]
    pub fn elapsed(self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_a_pure_delta() {
        let c = VirtualClock::start(10.0);
        assert_eq!(c.elapsed(12.5), 2.5);
        assert_eq!(c.elapsed(10.0), 0.0);
    }

    #[test]
    fn virtual_clock_clamps_negative_deltas() {
        let c = VirtualClock::start(10.0);
        assert_eq!(c.elapsed(9.0), 0.0);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::start();
        assert!(c.elapsed() >= 0.0);
    }

    #[test]
    fn clock_kind_names() {
        assert_eq!(ClockKind::Virtual.name(), "virtual");
        assert_eq!(ClockKind::Wall.name(), "wall");
    }
}
