//! Run configuration.

use crate::balance::BalancerConfig;
use crate::checkpoint::CheckpointConfig;

/// Whether the simulated space is restricted to the particle systems'
/// extent (paper: "FS", finite space) or left unbounded ("IS", infinite
/// space). With IS, static decomposition assigns almost all particles to
/// the central domain(s) — the Table 1 pathology.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpaceMode {
    #[default]
    Finite,
    Infinite,
}

/// Static (initial even split, never changed) vs dynamic load balancing.
///
/// Every dynamic variant carries a [`BalancerConfig`] and selects one
/// strategy behind the [`crate::balance::Balancer`] trait (see
/// [`crate::balancers::strategy_for`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BalanceMode {
    /// SLB: domains stay at their initial even split.
    Static,
    /// DLB: the paper's centralized neighbor-pair balancer (§3.2.5).
    Dynamic(BalancerConfig),
    /// The paper's future-work variant (§6): no manager involvement —
    /// neighbors exchange load information directly and every pair decides
    /// independently (half-excess diffusion), so a calculator may send and
    /// receive in the same round.
    Decentralized(BalancerConfig),
    /// Damped first-order diffusion: every pair moves `α ×` its excess per
    /// round, pair-locally like [`BalanceMode::Decentralized`].
    Diffusive(BalancerConfig),
    /// Hierarchical/SFC: contiguous rank groups along the 1-D domain curve,
    /// balanced across groups (even rounds) then within (odd rounds);
    /// manager-mediated like [`BalanceMode::Dynamic`].
    Hierarchical(BalancerConfig),
}

impl BalanceMode {
    pub fn dynamic() -> Self {
        BalanceMode::Dynamic(BalancerConfig::default())
    }

    pub fn decentralized() -> Self {
        BalanceMode::Decentralized(BalancerConfig::default())
    }

    pub fn diffusive() -> Self {
        BalanceMode::Diffusive(BalancerConfig::default())
    }

    pub fn hierarchical() -> Self {
        BalanceMode::Hierarchical(BalancerConfig::default())
    }

    pub fn is_dynamic(&self) -> bool {
        !matches!(self, BalanceMode::Static)
    }

    /// The strategy's tuning, `None` for static balancing.
    pub fn balancer_config(&self) -> Option<&BalancerConfig> {
        match self {
            BalanceMode::Static => None,
            BalanceMode::Dynamic(b)
            | BalanceMode::Decentralized(b)
            | BalanceMode::Diffusive(b)
            | BalanceMode::Hierarchical(b) => Some(b),
        }
    }

    /// Short label used in table headers: SLB / DLB / DEC / DIF / SFC.
    pub fn label(&self) -> &'static str {
        match self {
            BalanceMode::Static => "SLB",
            BalanceMode::Dynamic(_) => "DLB",
            BalanceMode::Decentralized(_) => "DEC",
            BalanceMode::Diffusive(_) => "DIF",
            BalanceMode::Hierarchical(_) => "SFC",
        }
    }
}

/// How exchange-phase traffic fans out between calculators.
///
/// The paper's 8-calculator runs send an exchange message to *every* peer
/// each system each frame (even when empty) — simple, and at paper scale
/// the empty-message overhead is noise. At 1,024 ranks the dense pattern is
/// n² messages per system per frame and dominates everything, so the
/// event-driven executor defaults to sparse: only calculators that actually
/// received migrating particles get a message, and the receive side drains
/// exactly the senders with queued traffic. Dense and sparse runs are *not*
/// fingerprint-comparable (empty messages carry virtual-time cost), which
/// is why dense stays the default at paper scale: it reproduces the paper's
/// message pattern (and the golden fingerprints) exactly.
///
/// The mode governs the virtual engine only. The threaded executor's
/// calculators always use the dense pattern (a handful of host threads,
/// and a blocking receive needs to know its senders), whatever is set here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Figure 2 verbatim: every calculator messages every other calculator
    /// each system, empty batches included.
    Dense,
    /// Only non-empty migration batches go on the wire; receivers drain
    /// queued senders instead of polling all peers. Required for 1,000+
    /// rank sweeps.
    Sparse,
    /// Resolve by rank count when the run starts: [`ExchangeMode::Dense`]
    /// below [`ExchangeMode::AUTO_SPARSE_THRESHOLD`] calculators (paper
    /// scale — Figure 2's message pattern verbatim),
    /// [`ExchangeMode::Sparse`] at or above it (the n² empty-message
    /// pattern would dominate). A run that auto-selects sparse fingerprints
    /// identically to one configured sparse explicitly.
    #[default]
    Auto,
}

impl ExchangeMode {
    /// Calculator count at which `Auto` switches to `Sparse`.
    pub const AUTO_SPARSE_THRESHOLD: usize = 64;

    /// The concrete mode (`Dense` or `Sparse`) for a run with
    /// `calculators` ranks.
    pub fn resolved(self, calculators: usize) -> ExchangeMode {
        match self {
            ExchangeMode::Auto => {
                if calculators >= Self::AUTO_SPARSE_THRESHOLD {
                    ExchangeMode::Sparse
                } else {
                    ExchangeMode::Dense
                }
            }
            m => m,
        }
    }
}

/// What a calculator reports as its per-frame processing "time" (§3.2.4).
///
/// The paper measures wall clock; wall clock makes dynamic-balancing
/// decisions depend on scheduler noise, so two same-seed threaded runs can
/// balance differently. [`LoadMetric::CountProportional`] reports the
/// post-exchange particle count instead — the balancer sees a load signal
/// that is a pure function of simulation state, making DLB runs
/// bit-reproducible (the determinism regression tests rely on this).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoadMetric {
    /// Measured wall-clock compute time (the paper's setup).
    #[default]
    WallClock,
    /// Deterministic: load "time" is the particle count.
    CountProportional,
}

/// Intra-rank parallel compute configuration: how each calculator runs its
/// action list through the chunked kernel (`psa_core::kernel`).
///
/// The default (`workers: 1, chunk: 0`) is the legacy serial path — one RNG
/// stream across the whole action list — which keeps every seed-calibrated
/// table bit-identical. Setting `chunk > 0` switches to chunk-keyed RNG
/// streams, whose results are byte-identical for **any** `workers` value;
/// `workers > 1` with `chunk == 0` uses `psa_core::kernel::DEFAULT_CHUNK`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Compute-phase worker threads per calculator (1 = in-place, no spawn).
    pub workers: usize,
    /// Particles per kernel chunk; 0 = legacy serial stream.
    pub chunk: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig { workers: 1, chunk: 0 }
    }
}

/// Full configuration of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Animation length in frames.
    pub frames: u64,
    /// Frame time step, seconds of simulated time.
    pub dt: f32,
    /// Master seed; everything stochastic derives from it.
    pub seed: u64,
    pub space: SpaceMode,
    pub balance: BalanceMode,
    /// Sub-domain buckets per calculator per system (paper §4 storage).
    pub buckets: usize,
    /// Warm-up frames excluded from per-frame statistics (population
    /// ramp-up).
    pub warmup: u64,
    /// Load signal the threaded executor's calculators report (the virtual
    /// executor is always deterministic regardless).
    pub load_metric: LoadMetric,
    /// Intra-rank compute parallelism (the psa-core chunked kernel).
    pub parallel: ParallelConfig,
    /// Exchange-phase fan-out (dense reproduces the paper; sparse scales).
    pub exchange: ExchangeMode,
    /// Snapshot cadence and crash-recovery policy (off by default — the
    /// paper's runs restart from frame 0 on failure).
    pub checkpoint: CheckpointConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            frames: 30,
            dt: 1.0 / 30.0,
            seed: 0x5EED,
            space: SpaceMode::Finite,
            balance: BalanceMode::dynamic(),
            buckets: 8,
            warmup: 0,
            load_metric: LoadMetric::WallClock,
            parallel: ParallelConfig::default(),
            exchange: ExchangeMode::Auto,
            checkpoint: CheckpointConfig::default(),
        }
    }
}

impl RunConfig {
    /// Paper-style config label, e.g. `FS-DLB`.
    pub fn label(&self) -> String {
        let space = match self.space {
            SpaceMode::Finite => "FS",
            SpaceMode::Infinite => "IS",
        };
        format!("{space}-{}", self.balance.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_columns() {
        let mut c = RunConfig::default();
        assert_eq!(c.label(), "FS-DLB");
        c.space = SpaceMode::Infinite;
        c.balance = BalanceMode::Static;
        assert_eq!(c.label(), "IS-SLB");
    }

    #[test]
    fn dynamic_detection() {
        assert!(BalanceMode::dynamic().is_dynamic());
        assert!(BalanceMode::decentralized().is_dynamic());
        assert!(BalanceMode::diffusive().is_dynamic());
        assert!(BalanceMode::hierarchical().is_dynamic());
        assert!(!BalanceMode::Static.is_dynamic());
        assert!(BalanceMode::Static.balancer_config().is_none());
        assert!(BalanceMode::diffusive().balancer_config().is_some());
    }

    #[test]
    fn labels_cover_all_modes() {
        assert_eq!(BalanceMode::Static.label(), "SLB");
        assert_eq!(BalanceMode::dynamic().label(), "DLB");
        assert_eq!(BalanceMode::decentralized().label(), "DEC");
        assert_eq!(BalanceMode::diffusive().label(), "DIF");
        assert_eq!(BalanceMode::hierarchical().label(), "SFC");
    }

    #[test]
    fn auto_exchange_resolves_by_rank_count() {
        assert_eq!(RunConfig::default().exchange, ExchangeMode::Auto);
        assert_eq!(ExchangeMode::Auto.resolved(8), ExchangeMode::Dense);
        assert_eq!(ExchangeMode::Auto.resolved(63), ExchangeMode::Dense);
        assert_eq!(ExchangeMode::Auto.resolved(64), ExchangeMode::Sparse);
        assert_eq!(ExchangeMode::Auto.resolved(1024), ExchangeMode::Sparse);
        // Explicit choices are never overridden.
        assert_eq!(ExchangeMode::Dense.resolved(1024), ExchangeMode::Dense);
        assert_eq!(ExchangeMode::Sparse.resolved(4), ExchangeMode::Sparse);
    }
}
