//! Actions over particles (paper §3.1.5).
//!
//! The model stipulates rules of behaviour only for actions that *create*
//! and *move* particles, because those change the spatial distribution.
//! Actions that only change properties may run at any time without
//! inter-process communication. We encode the taxonomy as [`ActionKind`]
//! so the runtime can verify that a user's action list is legal (exactly
//! one Move per frame loop, creation handled by the manager, etc.).

mod collide_action;
mod forces;
mod lifecycle;
mod motion;

pub use collide_action::{BounceOff, DieOnContact};
pub use forces::{Damping, Gravity, OrbitPoint, RandomAccel, Wind};
pub use lifecycle::{Fade, KillBelow, KillOld, KillOutside};
pub use motion::MoveParticles;

use crate::{Particle, SubDomainStore};
use psa_math::{Rng64, Scalar};

/// The paper's action taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// Creates particles. Executed by the manager, which distributes the
    /// new particles to calculators by domain (paper §3.2.1). Calculators
    /// never run these directly.
    Create,
    /// Changes properties without changing positions — gravity, aging
    /// colors, kill, bounce against external objects (paper §3.2.2). Local,
    /// no communication.
    Property,
    /// Changes positions — the move/integration step (paper §3.2.3).
    /// Leavers must afterwards be staged for exchange.
    Position,
    /// Generates the animation frame — exchange, balance, render
    /// (paper §3.2.4). Implemented by the runtime, not by user actions.
    Frame,
}

/// Per-frame context handed to actions.
pub struct ActionCtx<'a> {
    /// Frame time step in seconds.
    pub dt: Scalar,
    /// Animation frame counter.
    pub frame: u64,
    /// Deterministic stream for stochastic actions, pre-split per
    /// (system, frame) by the caller so calculator count does not affect
    /// the drawn values.
    pub rng: &'a mut Rng64,
}

/// What an action did, for statistics and the work-accounting the virtual
/// time executor uses (`applied` ≈ particle touches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActionOutcome {
    /// Number of particle applications performed.
    pub applied: usize,
    /// Number of particles removed.
    pub killed: usize,
}

impl ActionOutcome {
    pub fn applied(n: usize) -> Self {
        ActionOutcome { applied: n, killed: 0 }
    }

    pub fn merge(self, o: ActionOutcome) -> ActionOutcome {
        ActionOutcome { applied: self.applied + o.applied, killed: self.killed + o.killed }
    }
}

/// A simulation action applied by calculators to their local particles.
///
/// Implementations must be deterministic given the context RNG and must not
/// move particles unless their [`ActionKind`] is `Position` — the runtime's
/// debug assertions check this contract on every frame.
pub trait Action: Send + Sync {
    /// Which taxonomy class the action belongs to.
    fn kind(&self) -> ActionKind;

    /// Stable name for traces and benches.
    fn name(&self) -> &'static str;

    /// Apply to all local particles of one system.
    ///
    /// The default is the per-particle form: [`Action::apply_chunk`] over
    /// each bucket slice in the store's canonical order, on the one `ctx`
    /// stream. Whole-store actions (the `retain`-based killers), whose
    /// chunk form is `None`, override it.
    fn apply(&self, ctx: &mut ActionCtx<'_>, store: &mut SubDomainStore) -> ActionOutcome {
        store
            .bucket_slices_mut()
            .filter_map(|bucket| self.apply_chunk(ctx, bucket))
            .fold(ActionOutcome::default(), ActionOutcome::merge)
    }

    /// Apply to one contiguous chunk of a system's particles.
    ///
    /// Returning `Some` opts the action into the chunked parallel kernel
    /// ([`crate::kernel`]): the kernel covers every particle with exactly one
    /// chunk and keys each chunk's RNG stream by the chunk's position in the
    /// store's deterministic order, so results are byte-identical for any
    /// worker count. The answer must not depend on the slice contents —
    /// the kernel probes capability with an empty slice. Actions that must
    /// see the whole store at once (the `retain`-based killers) keep the
    /// default `None` and run serially through [`Action::apply`].
    fn apply_chunk(
        &self,
        _ctx: &mut ActionCtx<'_>,
        _chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        None
    }

    /// Relative per-particle cost weight used by the virtual-time cost
    /// model (1.0 = one arithmetic-light pass over the particle).
    fn cost_weight(&self) -> f64 {
        1.0
    }
}

/// An ordered list of actions executed every frame for one system —
/// the body of the paper's Algorithm 1 loop.
pub struct ActionList {
    actions: Vec<Box<dyn Action>>,
}

impl ActionList {
    pub fn new() -> Self {
        ActionList { actions: Vec::new() }
    }

    /// Append an action; returns `self` for builder-style chaining.
    pub fn then(mut self, a: impl Action + 'static) -> Self {
        self.actions.push(Box::new(a));
        self
    }

    pub fn push(&mut self, a: impl Action + 'static) {
        self.actions.push(Box::new(a));
    }

    pub fn len(&self) -> usize {
        self.actions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &dyn Action> {
        self.actions.iter().map(|b| b.as_ref())
    }

    /// Run every action in order; returns the merged outcome and the
    /// cost-weighted work (`Σ applied_i × weight_i`), which the virtual
    /// executors convert to seconds.
    pub fn run(&self, ctx: &mut ActionCtx<'_>, store: &mut SubDomainStore) -> (ActionOutcome, f64) {
        let mut out = ActionOutcome::default();
        let mut weighted = 0.0;
        for a in &self.actions {
            let o = a.apply(ctx, store);
            weighted += o.applied as f64 * a.cost_weight();
            out = out.merge(o);
        }
        (out, weighted)
    }

    /// Validate the paper's structural rules: at most one `Position` action
    /// (the move step) and no `Create`/`Frame` actions (those belong to the
    /// manager and the runtime respectively).
    pub fn validate(&self) -> Result<(), String> {
        let moves = self.actions.iter().filter(|a| a.kind() == ActionKind::Position).count();
        if moves > 1 {
            return Err(format!("action list has {moves} Position actions; the model allows one move step per frame"));
        }
        if let Some(bad) =
            self.actions.iter().find(|a| matches!(a.kind(), ActionKind::Create | ActionKind::Frame))
        {
            return Err(format!(
                "action '{}' of kind {:?} cannot appear in a calculator action list",
                bad.name(),
                bad.kind()
            ));
        }
        Ok(())
    }
}

impl Default for ActionList {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::{Axis, Interval, Vec3};

    fn ctx_rng() -> Rng64 {
        Rng64::new(42)
    }

    fn small_store() -> SubDomainStore {
        let mut s = SubDomainStore::new(Interval::new(-10.0, 10.0), Axis::X, 4);
        for i in 0..10 {
            s.insert(crate::Particle::at(Vec3::new(i as f32 - 5.0, 5.0, 0.0)));
        }
        s
    }

    #[test]
    fn action_list_runs_in_order() {
        let list = ActionList::new().then(Gravity::earth()).then(MoveParticles);
        assert_eq!(list.len(), 2);
        let mut rng = ctx_rng();
        let mut ctx = ActionCtx { dt: 1.0, frame: 0, rng: &mut rng };
        let mut store = small_store();
        let (out, weighted) = list.run(&mut ctx, &mut store);
        assert_eq!(out.applied, 20); // 10 particles × 2 actions
        assert_eq!(weighted, 20.0); // both actions have weight 1.0
                                    // gravity then move: y decreased
        for p in store.iter() {
            assert!(p.position.y < 5.0);
            assert!(p.velocity.y < 0.0);
        }
    }

    #[test]
    fn validate_rejects_two_moves() {
        let list = ActionList::new().then(MoveParticles).then(MoveParticles);
        assert!(list.validate().is_err());
        let ok = ActionList::new().then(Gravity::earth()).then(MoveParticles);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn outcome_merge() {
        let a = ActionOutcome { applied: 3, killed: 1 };
        let b = ActionOutcome { applied: 4, killed: 0 };
        assert_eq!(a.merge(b), ActionOutcome { applied: 7, killed: 1 });
    }
}
