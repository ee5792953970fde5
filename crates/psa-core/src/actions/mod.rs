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

use std::sync::OnceLock;

use crate::store::BLOCK;
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
    /// The default runs [`Action::apply_then`] with nothing to hand on
    /// when the action is a whole-store killer, and otherwise the
    /// per-particle form: [`Action::apply_chunk`] over each bucket slice in
    /// the store's canonical order, on the one `ctx` stream. An action that
    /// overrides it and is also chunkable must do exactly what the chunk
    /// form does, because [`ActionList::run`] may take either.
    fn apply(&self, ctx: &mut ActionCtx<'_>, store: &mut SubDomainStore) -> ActionOutcome {
        if let Some(out) = self.apply_then(store, &mut |_| {}) {
            return out;
        }
        store
            .bucket_slices_mut()
            .filter_map(|bucket| self.apply_chunk(ctx, bucket))
            .fold(ActionOutcome::default(), ActionOutcome::merge)
    }

    /// Apply to one contiguous chunk of a system's particles.
    ///
    /// Returning `Some` opts the action into the chunked parallel kernel
    /// ([`crate::kernel`]) and into [`ActionList::run`]'s fused walks. The
    /// answer must depend on neither the slice nor the context — the kernel
    /// probes capability with an empty slice, and the list once, when its
    /// first run plans its walks. A chunkable action acts on each particle
    /// alone:
    /// over a slice, or over consecutive pieces of it in order on the same
    /// stream, it must leave the same particles, draw the same values and
    /// return the same summed outcome (an empty slice changes nothing and
    /// counts nothing). That is what lets a fused walk interleave it with
    /// its neighbours block by block. Actions that must see the whole store
    /// at once (the `retain`-based killers) keep the default `None` and run
    /// serially through [`Action::apply`].
    fn apply_chunk(
        &self,
        _ctx: &mut ActionCtx<'_>,
        _chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        None
    }

    /// A whole-store killer with a per-particle keep test: kill over
    /// `store` with one [`SubDomainStore::retain_then`] sweep, handing the
    /// survivors to `tail` as the sweep finishes them, and return the kill's
    /// outcome. The default `None` means the action is not one; the answer
    /// must not depend on the store (the list probes it once, with an empty
    /// one). The sweep gets no context, so the test draws nothing.
    fn apply_then(
        &self,
        _store: &mut SubDomainStore,
        _tail: &mut dyn FnMut(&mut [Particle]),
    ) -> Option<ActionOutcome> {
        None
    }

    /// Does the action take values from `ctx.rng`? A fused walk
    /// interleaves its actions particle by particle, so two actions that
    /// draw would take their values in a different order than two separate
    /// passes; [`ActionList::run`] never fuses more than one action that
    /// answers `true`. The default is `true`, so an action that does not
    /// say otherwise is never fused with another that draws; an action
    /// that answers `false` must never touch the stream.
    fn draws_rng(&self) -> bool {
        true
    }

    /// Relative per-particle cost weight used by the virtual-time cost
    /// model (1.0 = one arithmetic-light pass over the particle).
    fn cost_weight(&self) -> f64 {
        1.0
    }
}

/// A chunkable action must stay chunkable for every slice — a `None` here
/// after a `Some` probe would silently skip particles.
pub(crate) fn apply_chunk_checked(
    a: &dyn Action,
    ctx: &mut ActionCtx<'_>,
    piece: &mut [Particle],
) -> ActionOutcome {
    a.apply_chunk(ctx, piece)
        .unwrap_or_else(|| panic!("action '{}' revoked apply_chunk mid-run", a.name()))
}

/// Most actions one fused walk runs: [`ActionList::run`] keeps their
/// outcomes apart on the stack.
const FUSE_MAX: usize = 8;

/// One walk of [`ActionList::run`]'s plan over the store: the actions
/// `start..end` of the list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Walk {
    /// One action through [`Action::apply`].
    One(usize),
    /// A run of chunkable actions, at most one of them drawing, applied
    /// block by block over each bucket.
    Fused(usize, usize),
    /// A killer's [`Action::apply_then`] sweep, handing its survivors to
    /// the chunkable actions after it, at most one of them drawing.
    KillThen(usize, usize),
}

impl Walk {
    fn range(self) -> (usize, usize) {
        match self {
            Walk::One(i) => (i, i + 1),
            Walk::Fused(start, end) | Walk::KillThen(start, end) => (start, end),
        }
    }
}

/// Does `a` answer `Some` from [`Action::apply_chunk`]?
fn chunkable(a: &dyn Action) -> bool {
    let mut rng = Rng64::new(0);
    a.apply_chunk(&mut ActionCtx { dt: 0.0, frame: 0, rng: &mut rng }, &mut []).is_some()
}

/// Does `a` answer `Some` from [`Action::apply_then`]?
fn hands_on(a: &dyn Action) -> bool {
    a.apply_then(&mut SubDomainStore::unbucketed(), &mut |_| {}).is_some()
}

/// Apply `run` to one block, action by action, adding each outcome to its
/// own tally.
fn apply_block(
    run: &[Box<dyn Action>],
    ctx: &mut ActionCtx<'_>,
    block: &mut [Particle],
    tallies: &mut [ActionOutcome],
) {
    for (a, tally) in run.iter().zip(tallies) {
        *tally = tally.merge(apply_chunk_checked(a.as_ref(), ctx, block));
    }
}

/// An ordered list of actions executed every frame for one system —
/// the body of the paper's Algorithm 1 loop.
///
/// The list walks the store fewer times than it has actions. Its first
/// run plans the walks, once: a run of chunkable actions becomes one walk that applies every action to a block of 256
/// particles before the next block, and a whole-store killer followed by
/// chunkable actions becomes one kill sweep that hands each block of
/// survivors on ([`Action::apply_then`]). A walk holds at most one action
/// that [draws](Action::draws_rng) and at most eight actions. Every
/// particle gets the same operations in the same order as
/// action-by-action passes would apply, and the one drawing action takes
/// its values in the same particle order, so the result is the same bit
/// for bit.
pub struct ActionList {
    actions: Vec<Box<dyn Action>>,
    /// Worked out by the first run and kept: a pool builds two lists per
    /// session, and probing each action as it joined showed in their
    /// set-up time.
    plan: OnceLock<Plan>,
}

/// Which actions ride the walk of the action before them, and which head a
/// kill sweep: bit `i` stands for action `i`. Actions past the 64th walk
/// alone.
#[derive(Clone, Copy, Debug, Default)]
struct Plan {
    joins: u64,
    kills: u64,
}

impl Plan {
    /// Each action joins the walk before it when it is chunkable and that
    /// walk is headed by a chunkable action or by a killer, holds fewer
    /// than `FUSE_MAX` actions, and would still hold at most one that
    /// draws (a killer's sweep draws nothing).
    fn of(actions: &[Box<dyn Action>]) -> Plan {
        let mut plan = Plan::default();
        let mut start = 0;
        for (i, a) in actions.iter().enumerate().take(64).skip(1) {
            let walk = &actions[start..i];
            let head = walk[0].as_ref();
            let kill = match walk.len() {
                1 => !chunkable(head) && hands_on(head),
                _ => plan.kills & (1 << start) != 0,
            };
            let drawn = walk[usize::from(kill)..].iter().filter(|a| a.draws_rng()).count();
            let fits = (kill || chunkable(head))
                && walk.len() < FUSE_MAX
                && drawn + usize::from(a.draws_rng()) <= 1;
            if fits && chunkable(a.as_ref()) {
                plan.joins |= 1 << i;
                plan.kills |= u64::from(kill) << start;
            } else {
                start = i;
            }
        }
        plan
    }
}

impl ActionList {
    pub fn new() -> Self {
        ActionList { actions: Vec::new(), plan: OnceLock::new() }
    }

    /// Append an action; returns `self` for builder-style chaining.
    pub fn then(mut self, a: impl Action + 'static) -> Self {
        self.push(a);
        self
    }

    pub fn push(&mut self, a: impl Action + 'static) {
        self.actions.push(Box::new(a));
        self.plan = OnceLock::new();
    }

    /// The plan: each walk over the store, in list order.
    fn walks(&self) -> impl Iterator<Item = Walk> + '_ {
        let plan = *self.plan.get_or_init(|| Plan::of(&self.actions));
        let joined = move |j: usize| j < 64 && plan.joins & (1 << j) != 0;
        let n = self.actions.len();
        let mut start = 0;
        std::iter::from_fn(move || {
            if start == n {
                return None;
            }
            let end = (start + 1..n).find(|&j| !joined(j)).unwrap_or(n);
            let walk = match end - start {
                1 => Walk::One(start),
                _ if plan.kills & (1 << start) != 0 => Walk::KillThen(start, end),
                _ => Walk::Fused(start, end),
            };
            start = end;
            Some(walk)
        })
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
    ///
    /// The actions run by the list's plan (see [`ActionList`]); each
    /// action's outcome is still tallied apart, and the outcomes and
    /// weights are added in list order, so the f64 sum is the one
    /// action-by-action passes would make. A run allocates nothing.
    pub fn run(&self, ctx: &mut ActionCtx<'_>, store: &mut SubDomainStore) -> (ActionOutcome, f64) {
        let mut out = ActionOutcome::default();
        let mut weighted = 0.0;
        self.run_each(ctx, store, |a, o| {
            weighted += o.applied as f64 * a.cost_weight();
            out = out.merge(o);
        });
        (out, weighted)
    }

    /// Run the plan, handing each action's outcome to `each` in list order.
    fn run_each<F: FnMut(&dyn Action, ActionOutcome)>(
        &self,
        ctx: &mut ActionCtx<'_>,
        store: &mut SubDomainStore,
        mut each: F,
    ) {
        let mut tallies = [ActionOutcome::default(); FUSE_MAX];
        for walk in self.walks() {
            let (start, end) = walk.range();
            let (run, tallies) = (&self.actions[start..end], &mut tallies[..end - start]);
            tallies.fill(ActionOutcome::default());
            match walk {
                Walk::One(_) => tallies[0] = run[0].apply(ctx, store),
                Walk::Fused(..) => {
                    for bucket in store.bucket_slices_mut() {
                        for block in bucket.chunks_mut(BLOCK) {
                            apply_block(run, ctx, block, tallies);
                        }
                    }
                }
                Walk::KillThen(..) => {
                    let (kill, rest) = tallies.split_at_mut(1);
                    let mut hand_on =
                        |block: &mut [Particle]| apply_block(&run[1..], ctx, block, rest);
                    let killer = run[0].as_ref();
                    kill[0] = killer
                        .apply_then(store, &mut hand_on)
                        .unwrap_or_else(|| panic!("action '{}' revoked apply_then", killer.name()));
                }
            }
            for (a, o) in run.iter().zip(tallies.iter()) {
                each(a.as_ref(), *o);
            }
        }
    }

    /// Validate the paper's structural rules: at most one `Position` action
    /// (the move step) and no `Create`/`Frame` actions (those belong to the
    /// manager and the runtime respectively).
    pub fn validate(&self) -> Result<(), String> {
        let moves = self.iter().filter(|a| a.kind() == ActionKind::Position).count();
        if moves > 1 {
            return Err(format!("action list has {moves} Position actions; the model allows one move step per frame"));
        }
        if let Some(bad) =
            self.iter().find(|a| matches!(a.kind(), ActionKind::Create | ActionKind::Frame))
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
    use crate::objects::ExternalObject;
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

    /// Every bit of every particle, in canonical order.
    fn particle_bits(s: &SubDomainStore) -> Vec<[u32; 16]> {
        let v = |v: Vec3| [v.x, v.y, v.z];
        s.iter()
            .map(|p| {
                let mut bits = [0u32; 16];
                let fields = [v(p.position), v(p.velocity), v(p.orientation), v(p.color)];
                for (slot, f) in bits.iter_mut().zip(fields.concat()) {
                    *slot = f.to_bits();
                }
                bits[12..].copy_from_slice(&[p.age, p.size, p.alpha, p.mass].map(f32::to_bits));
                bits
            })
            .collect()
    }

    /// `n` particles over `[-50, 50)` in `k` buckets, spread so that every
    /// killer below finds some to kill and some to keep.
    fn spread_store(n: usize, k: usize, seed: u64) -> SubDomainStore {
        let mut rng = Rng64::new(seed);
        let mut s = SubDomainStore::new(Interval::new(-50.0, 50.0), Axis::X, k);
        for _ in 0..n {
            let at = Vec3::new(rng.range(-50.0, 50.0), rng.range(-2.0, 20.0), rng.range(-5.0, 5.0));
            let mut p = Particle::at(at).with_velocity(rng.in_unit_sphere() * 4.0);
            (p.age, p.alpha) = (rng.range(0.0, 6.0), rng.range(0.0, 1.0));
            s.insert(p);
        }
        s
    }

    /// The action-by-action loop a plan replaces: each action's outcome
    /// from [`Action::apply`], in list order.
    fn one_by_one(
        list: &ActionList,
        ctx: &mut ActionCtx<'_>,
        s: &mut SubDomainStore,
    ) -> Vec<ActionOutcome> {
        list.iter().map(|a| a.apply(ctx, s)).collect()
    }

    /// `(outcomes, weighted bits, rng end state, particle bits)` of `list`
    /// over `spread_store(n, k, ..)`, by the plan or by the reference loop.
    type Ran = (Vec<ActionOutcome>, u64, u64, Vec<[u32; 16]>);

    fn ran(list: &ActionList, n: usize, k: usize, planned: bool) -> Ran {
        let fresh = || (spread_store(n, k, 0xF00D + n as u64), Rng64::new(n as u64 ^ 0x5EED));
        let (mut store, mut rng) = fresh();
        let mut ctx = ActionCtx { dt: 0.05, frame: 4, rng: &mut rng };
        let outcomes = if planned {
            let mut outcomes = Vec::new();
            list.run_each(&mut ctx, &mut store, |_, o| outcomes.push(o));
            outcomes
        } else {
            one_by_one(list, &mut ctx, &mut store)
        };
        let weighted = list
            .iter()
            .zip(&outcomes)
            .fold(0.0, |w, (a, o)| w + o.applied as f64 * a.cost_weight());
        if planned {
            // `run` is `walk` folded in list order.
            let (mut again, mut rng_again) = fresh();
            let mut ctx = ActionCtx { dt: 0.05, frame: 4, rng: &mut rng_again };
            let (out, w) = list.run(&mut ctx, &mut again);
            let merged = outcomes.iter().fold(ActionOutcome::default(), |a, &o| a.merge(o));
            assert_eq!((out, w.to_bits()), (merged, weighted.to_bits()));
        }
        (outcomes, weighted.to_bits(), rng.state(), particle_bits(&store))
    }

    /// The five scene lists the workloads build, in their order.
    fn scene_lists() -> Vec<(&'static str, ActionList, usize)> {
        let sphere = ExternalObject::Sphere { center: Vec3::new(6.0, 8.0, 0.0), radius: 3.0 };
        vec![
            (
                "snow",
                ActionList::new()
                    .then(RandomAccel::new(0.9))
                    .then(BounceOff::new(sphere, 0.15, 0.6))
                    .then(KillOld::new(12.0))
                    .then(KillBelow::ground(0.0))
                    .then(MoveParticles),
                3,
            ),
            (
                "fountain",
                ActionList::new()
                    .then(Gravity::earth())
                    .then(RandomAccel::new(0.6))
                    .then(DieOnContact::new(ExternalObject::ground(-0.2)))
                    .then(KillOld::new(4.0))
                    .then(MoveParticles),
                3,
            ),
            (
                "vortex",
                ActionList::new()
                    .then(OrbitPoint::new(Vec3::new(0.0, 10.0, 0.0), 40.0))
                    .then(RandomAccel::new(0.8))
                    .then(KillOld::new(6.0))
                    .then(MoveParticles),
                2,
            ),
            (
                "smoke",
                ActionList::new()
                    .then(Wind::new(Vec3::new(1.0, 0.5, 0.0), 0.8))
                    .then(RandomAccel::new(0.3))
                    .then(Damping::new(0.2))
                    .then(Fade::new(0.25, true))
                    .then(KillOutside::new(psa_math::Aabb::centered_cube(40.0)))
                    .then(MoveParticles),
                3,
            ),
            (
                "fireworks",
                ActionList::new()
                    .then(Gravity::earth())
                    .then(Damping::new(0.05))
                    .then(Fade::new(0.3, false))
                    .then(KillOld::new(3.0))
                    .then(MoveParticles),
                2,
            ),
        ]
    }

    /// One of the twelve actions, picked by `which`.
    fn some_action(list: ActionList, which: usize) -> ActionList {
        let sphere = ExternalObject::Sphere { center: Vec3::new(-10.0, 5.0, 1.0), radius: 6.0 };
        match which % 13 {
            0 => list.then(Gravity::earth()),
            1 => list.then(RandomAccel::new(1.5)),
            2 => list.then(Damping::new(0.3)),
            3 => list.then(Wind::new(Vec3::new(-2.0, 0.0, 1.0), 0.5)),
            4 => list.then(OrbitPoint::new(Vec3::new(5.0, 5.0, 0.0), 30.0)),
            5 => list.then(BounceOff::new(sphere, 0.5, 0.2)),
            6 => list.then(DieOnContact::new(sphere)),
            7 => list.then(MoveParticles),
            8 => list.then(KillOld::new(4.5)),
            9 => list.then(KillBelow::ground(1.0)),
            10 => list.then(KillOutside::new(psa_math::Aabb::centered_cube(30.0))),
            11 => list.then(Fade::new(0.5, false)),
            _ => list.then(Fade::new(0.5, true)),
        }
    }

    const SIZES: [usize; 6] = [0, 1, 255, 256, 257, 3000];

    #[test]
    fn the_plan_walks_each_scene_store_fewer_times() {
        for (name, list, walks) in scene_lists() {
            let plan: Vec<Walk> = list.walks().collect();
            assert_eq!(plan.len(), walks, "{name}: {plan:?}");
        }
        let fountain = &scene_lists()[1].1;
        let plan: Vec<Walk> = fountain.walks().collect();
        assert_eq!(plan, [Walk::Fused(0, 2), Walk::One(2), Walk::KillThen(3, 5)]);
    }

    /// Fusion is exact: every scene list leaves the particles, the stream,
    /// every action's outcome and the weighted sum bit for bit where the
    /// action-by-action loop leaves them.
    #[test]
    fn a_fused_scene_list_runs_exactly_as_its_actions_one_by_one() {
        for (name, list, _) in scene_lists() {
            for n in SIZES {
                for k in [1, 8] {
                    assert_eq!(
                        ran(&list, n, k, true),
                        ran(&list, n, k, false),
                        "{name}, {n} particles, {k} buckets"
                    );
                }
            }
        }
    }

    /// The same over random lists of the twelve actions (Fade both ways),
    /// repeats and several drawing actions included, so runs longer than a
    /// walk may hold, killers back to back and stochastic tails all occur.
    #[test]
    fn a_random_list_runs_exactly_as_its_actions_one_by_one() {
        let mut rng = Rng64::new(0xAC7_1015);
        for case in 0..60 {
            let len = 1 + rng.below(12);
            let picks: Vec<usize> = (0..len).map(|_| rng.below(13)).collect();
            let list = picks.iter().fold(ActionList::new(), |list, &w| some_action(list, w));
            for n in SIZES {
                for k in [1, 8] {
                    assert_eq!(
                        ran(&list, n, k, true),
                        ran(&list, n, k, false),
                        "case {case} {picks:?}, {n} particles, {k} buckets"
                    );
                }
            }
        }
    }

    /// A walk holds at most one drawing action and at most `FUSE_MAX`.
    #[test]
    fn a_walk_holds_one_drawing_action_and_at_most_fuse_max() {
        let list = (0..20).fold(ActionList::new(), |l, i| some_action(l, [1, 0, 1, 2][i % 4]));
        for walk in list.walks() {
            let (start, end) = walk.range();
            let drawn = list.iter().take(end).skip(start).filter(|a| a.draws_rng()).count();
            assert!(drawn <= 1 && end - start <= FUSE_MAX, "{walk:?}");
        }
        // Past the 64th action every action walks alone.
        let long = (0..70).fold(ActionList::new(), |l, _| l.then(Gravity::earth()));
        let plan: Vec<Walk> = long.walks().collect();
        let fused = (0..8).map(|w| Walk::Fused(8 * w, 8 * w + 8));
        assert_eq!(plan, fused.chain((64..70).map(Walk::One)).collect::<Vec<_>>());
        assert_eq!(ran(&long, 300, 8, true), ran(&long, 300, 8, false));
    }

    #[test]
    fn outcome_merge() {
        let a = ActionOutcome { applied: 3, killed: 1 };
        let b = ActionOutcome { applied: 4, killed: 0 };
        assert_eq!(a.merge(b), ActionOutcome { applied: 7, killed: 1 });
    }
}
