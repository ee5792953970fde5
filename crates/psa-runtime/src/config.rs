//! Run configuration.

use crate::balance::BalancerConfig;
use crate::msg::ProtocolError;

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
/// the empty-message overhead is noise. At 1,024 ranks that dense pattern
/// is n² messages per system per frame and dominates everything, so large
/// runs go sparse: only calculators that actually received migrating
/// particles get a message, and the receive side drains exactly the senders
/// with queued traffic. Dense and sparse runs are *not* fingerprint-
/// comparable (empty messages carry virtual-time cost), which is why the
/// default stays dense at paper scale: it reproduces the paper's message
/// pattern (and the golden fingerprints) exactly.
///
/// The mode governs the virtual engine only. The threaded executor's
/// calculators always use the dense pattern (a handful of host threads,
/// and a blocking receive needs to know its senders), whatever is set here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Only non-empty migration batches go on the wire; receivers drain
    /// queued senders instead of polling all peers. Required for 1,000+
    /// rank sweeps.
    Sparse,
    /// Resolve by rank count when the run starts: Figure 2's dense pattern
    /// verbatim (every calculator messages every other calculator each
    /// system, empty batches included) below
    /// [`ExchangeMode::AUTO_SPARSE_THRESHOLD`] calculators,
    /// [`ExchangeMode::Sparse`] at or above it (the n² empty-message
    /// pattern would dominate). A run that auto-selects sparse fingerprints
    /// identically to one configured sparse explicitly.
    #[default]
    Auto,
}

impl ExchangeMode {
    /// Calculator count at which `Auto` switches to `Sparse`.
    pub const AUTO_SPARSE_THRESHOLD: usize = 64;

    /// Whether a run with `calculators` ranks exchanges sparsely.
    pub fn is_sparse(self, calculators: usize) -> bool {
        match self {
            ExchangeMode::Sparse => true,
            ExchangeMode::Auto => calculators >= Self::AUTO_SPARSE_THRESHOLD,
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
    /// Warm-up frames excluded from per-frame statistics (population
    /// ramp-up).
    pub warmup: u64,
    /// Load signal the threaded executor's calculators report (the virtual
    /// executor is always deterministic regardless).
    pub load_metric: LoadMetric,
    /// Exchange-phase fan-out (dense reproduces the paper; sparse scales).
    pub exchange: ExchangeMode,
    /// Take an engine snapshot every `checkpoint_interval` frames (at the
    /// top of frames `interval`, `2*interval`, …) and recover a crashed
    /// calculator from the last one; see [`crate::checkpoint`]. `0` (the
    /// default) turns checkpointing off — the paper's runs restart from
    /// frame 0 on failure.
    pub checkpoint_interval: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            frames: 30,
            dt: 1.0 / 30.0,
            seed: 0x5EED,
            space: SpaceMode::Finite,
            balance: BalanceMode::dynamic(),
            warmup: 0,
            load_metric: LoadMetric::WallClock,
            exchange: ExchangeMode::Auto,
            checkpoint_interval: 0,
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

    /// Refuse what no executor can run: a NaN or infinite `dt` moves every
    /// particle to a non-finite position, and what becomes of it then
    /// depends on the rank count (a NaN donation cut is refused, a
    /// one-calculator run has no cut). Zero and negative steps are legal.
    /// Two call sites ask it:
    /// [`Engine::step_frame`](crate::protocol::Engine::step_frame), before
    /// every frame of every virtual engine (`EventSim` and the session
    /// pool), and [`run_threaded_traced`](crate::threaded::run_threaded_traced),
    /// before it starts a thread.
    pub fn check(&self) -> Result<(), ProtocolError> {
        if self.dt.is_finite() {
            Ok(())
        } else {
            Err(ProtocolError::NonFiniteDt { dt: self.dt })
        }
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
        assert!(!ExchangeMode::Auto.is_sparse(8));
        assert!(!ExchangeMode::Auto.is_sparse(63));
        assert!(ExchangeMode::Auto.is_sparse(64));
        assert!(ExchangeMode::Auto.is_sparse(1024));
        // An explicit choice is never overridden.
        assert!(ExchangeMode::Sparse.is_sparse(4));
    }
}
