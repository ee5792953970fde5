//! Session identity, specification, outcome, and per-session seeds.

use cluster_sim::{ClusterSpec, CostModel};
use psa_desim::EventSim;
use psa_math::Rng64;
use psa_runtime::{RunConfig, RunReport, Scene};
use psa_trace::SessionCounters;

/// Identifies one session for the lifetime of a [`SessionManager`]
/// (admission order, starting at 0).
///
/// [`SessionManager`]: crate::SessionManager
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Identifies the tenant (user/account) a session bills to. Backpressure
/// is enforced per tenant so one heavy tenant cannot starve the others.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TenantId(pub u32);

/// Everything one session needs to run: whose it is, what it animates, and
/// the resources its run is entitled to.
///
/// The spec's `cfg.seed` is ignored — the pool overwrites it with the seed
/// derived from the pool's base seed and the session's id (see
/// [`derive_session_seed`]), which is what makes multiplexed runs
/// reproducible against solo runs.
#[derive(Clone)]
pub struct SessionSpec {
    /// The tenant the session bills to.
    pub tenant: TenantId,
    /// The scene the session animates.
    pub scene: Scene,
    /// Run configuration (frames, balance mode, …); `seed` is overwritten.
    pub cfg: RunConfig,
    /// The simulated cluster the session's protocol engine runs on.
    pub cluster: ClusterSpec,
    /// The cost model matching the scene's workload size.
    pub cost: CostModel,
    /// Pool-virtual arrival time (0.0 = present at pool start). Queue
    /// waits and first-frame latencies are measured from this.
    pub arrival: f64,
}

impl SessionSpec {
    /// The solo run of this spec under `seed`. A pooled session steps the
    /// engine of its derived seed's solo run
    /// ([`EventSim::into_engine`]), so that solo run is also the reference
    /// its report must equal.
    pub fn solo(&self, seed: u64) -> EventSim {
        let cfg = RunConfig { seed, ..self.cfg.clone() };
        EventSim::new(self.scene.clone(), cfg, self.cluster.clone(), self.cost.clone())
    }
}

/// Derive the seed session `id` runs under from the pool's base seed.
///
/// The recipe is the kernel's chunk-keyed RNG split (`base.split(key)`,
/// see `psa_core::kernel`) applied at session granularity: every session
/// gets a statistically independent stream that is a pure function of
/// `(base_seed, session id)` — independent of admission order, worker
/// count, slice length, and whatever else the pool multiplexes around it.
/// A solo run configured with this seed is byte-identical to the session's
/// multiplexed run; `tests/session_parity.rs` pins that.
pub fn derive_session_seed(base_seed: u64, id: SessionId) -> u64 {
    let mut stream = Rng64::new(base_seed).split(id.0);
    stream.next_u64()
}

/// The result of one completed session.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// The session this outcome belongs to.
    pub id: SessionId,
    /// The tenant it billed to.
    pub tenant: TenantId,
    /// The seed the run actually used (derived, not the spec's).
    pub seed: u64,
    /// The run report, exactly as a solo run of `seed` would produce it.
    pub report: RunReport,
    /// [`RunReport::fingerprint`] of `report`, precomputed for gates.
    pub fingerprint: u64,
    /// Pool-virtual time the session's final frame completed at.
    pub finished_at: f64,
    /// Pool-virtual gap between consecutive frame completions as the
    /// viewer sees them; the first entry is measured from `arrival`, so it
    /// includes the admission-queue wait. On a worker-loss restart the
    /// entries past the last pool checkpoint are dropped (all of them when
    /// checkpointing is off) — the latencies describe the playback that
    /// succeeded, with the replay's cost folded into the first
    /// post-restart gap.
    pub frame_latencies: Vec<f64>,
    /// Scheduler and per-phase counters (phase times are all zero unless
    /// the pool ran instrumented).
    pub counters: SessionCounters,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = derive_session_seed(0x5EED, SessionId(0));
        let b = derive_session_seed(0x5EED, SessionId(1));
        assert_eq!(a, derive_session_seed(0x5EED, SessionId(0)));
        assert_ne!(a, b);
        assert_ne!(a, derive_session_seed(0x5EEE, SessionId(0)));
    }

    #[test]
    fn derived_seed_matches_the_split_recipe() {
        let mut by_hand = Rng64::new(42).split(7);
        assert_eq!(derive_session_seed(42, SessionId(7)), by_hand.next_u64());
    }
}
