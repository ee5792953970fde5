//! Which of the two clocks a trace was measured on.
//!
//! The deterministic executor measures phases in *virtual seconds* — the
//! same per-rank clocks netsim advances — so instrumented runs are
//! bit-exact across machines. The threaded executor measures real elapsed
//! time and therefore lives behind the wall-clock escape hatch in its own
//! crate. Recorders only ever read the clock they are handed; nothing here
//! advances a simulation clock.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_kind_names() {
        assert_eq!(ClockKind::Virtual.name(), "virtual");
        assert_eq!(ClockKind::Wall.name(), "wall");
    }
}
