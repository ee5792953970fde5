//! The phase taxonomy.
//!
//! One frame of the Figure-2 protocol decomposes into six wall-to-wall
//! phases. The mapping from the thirteen diagram steps to six measurable
//! phases follows the cost accounting of the diffusive load-balancing
//! literature (arXiv:2208.07553, arXiv:1808.00829): lump what a profiler
//! could not separate on a real cluster, keep what the balancer and the
//! tables need apart.

/// One measurable phase of a protocol frame.
///
/// Diagram steps → phase:
///
/// | Figure-2 steps                                             | phase        |
/// |------------------------------------------------------------|--------------|
/// | ParticleCreation, AdditionToLocalSet, Calculus             | `Compute`    |
/// | ParticleExchange                                           | `Exchange`   |
/// | LoadInformation                                            | `LoadReport` |
/// | LoadBalancingEvaluation … LoadBalanceBetweenCalculators    | `Balance`    |
/// | ParticlesToImageGenerator                                  | `Ship`       |
/// | ImageGeneration (+frame barrier)                           | `Render`     |
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Creation, addition to the local set, the action list.
    Compute,
    /// End-of-frame domain-crossing particle exchange.
    Exchange,
    /// Load reports from calculators to the manager (§3.2.4).
    LoadReport,
    /// Balancer evaluation, orders, domain updates, donations (§3.2.5).
    Balance,
    /// Shipping render payloads to the image generator.
    Ship,
    /// Image generation plus the end-of-frame synchronization.
    Render,
}

/// Number of phases (array dimension for per-phase accumulators).
pub const PHASE_COUNT: usize = 6;

/// Every phase, in frame order.
pub const PHASES: [Phase; PHASE_COUNT] = [
    Phase::Compute,
    Phase::Exchange,
    Phase::LoadReport,
    Phase::Balance,
    Phase::Ship,
    Phase::Render,
];

impl Phase {
    /// Dense index into `[f64; PHASE_COUNT]` accumulators.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Compute => 0,
            Phase::Exchange => 1,
            Phase::LoadReport => 2,
            Phase::Balance => 3,
            Phase::Ship => 4,
            Phase::Render => 5,
        }
    }

    /// Stable snake-case name used in tables and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::Exchange => "exchange",
            Phase::LoadReport => "load_report",
            Phase::Balance => "balance",
            Phase::Ship => "ship",
            Phase::Render => "render",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = PHASES.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT);
    }
}
