//! Lifecycle actions: kill and fade (property-changing, paper §3.2.2).
//!
//! The paper's Algorithm 1 includes "Remove particles under the position
//! (x, y, z)" and "eliminate old particles"; these are [`KillBelow`] and
//! [`KillOld`].

use super::{Action, ActionCtx, ActionKind, ActionOutcome};
use crate::{Particle, SubDomainStore};
use psa_math::{Aabb, Axis, Scalar};

/// A whole-store kill by the per-particle test `keep`, handing the
/// survivors to `tail` ([`SubDomainStore::retain_then`]); every particle
/// counts as applied.
pub(super) fn kill<K: FnMut(&Particle) -> bool>(
    store: &mut SubDomainStore,
    keep: K,
    tail: &mut dyn FnMut(&mut [Particle]),
) -> ActionOutcome {
    let before = store.len();
    let killed = store.retain_then(keep, tail);
    ActionOutcome { applied: before, killed }
}

/// Remove particles older than `max_age` seconds.
#[derive(Clone, Copy, Debug)]
pub struct KillOld {
    pub max_age: Scalar,
}

impl KillOld {
    pub fn new(max_age: Scalar) -> Self {
        assert!(max_age >= 0.0);
        KillOld { max_age }
    }
}

impl Action for KillOld {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "kill-old"
    }

    fn apply_then(
        &self,
        store: &mut SubDomainStore,
        tail: &mut dyn FnMut(&mut [Particle]),
    ) -> Option<ActionOutcome> {
        Some(kill(store, |p| p.age <= self.max_age, tail))
    }

    fn draws_rng(&self) -> bool {
        false
    }
}

/// Remove particles whose coordinate along `axis` fell below `threshold` —
/// e.g. snow that reached the ground (Algorithm 1's "remove particles under
/// the position").
#[derive(Clone, Copy, Debug)]
pub struct KillBelow {
    pub axis: Axis,
    pub threshold: Scalar,
}

impl KillBelow {
    pub fn new(axis: Axis, threshold: Scalar) -> Self {
        KillBelow { axis, threshold }
    }

    /// Kill below ground height `h` on the y axis.
    pub fn ground(h: Scalar) -> Self {
        KillBelow { axis: Axis::Y, threshold: h }
    }
}

impl Action for KillBelow {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "kill-below"
    }

    fn apply_then(
        &self,
        store: &mut SubDomainStore,
        tail: &mut dyn FnMut(&mut [Particle]),
    ) -> Option<ActionOutcome> {
        Some(kill(store, |p| p.position.along(self.axis) >= self.threshold, tail))
    }

    fn draws_rng(&self) -> bool {
        false
    }
}

/// Remove particles that escaped a bounding box (keeps the working set
/// bounded in open-space simulations).
#[derive(Clone, Copy, Debug)]
pub struct KillOutside {
    pub bounds: Aabb,
}

impl KillOutside {
    pub fn new(bounds: Aabb) -> Self {
        KillOutside { bounds }
    }
}

impl Action for KillOutside {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "kill-outside"
    }

    fn apply_then(
        &self,
        store: &mut SubDomainStore,
        tail: &mut dyn FnMut(&mut [Particle]),
    ) -> Option<ActionOutcome> {
        Some(kill(store, |p| self.bounds.contains(p.position), tail))
    }

    fn draws_rng(&self) -> bool {
        false
    }
}

/// Linearly fade particle alpha with age; optionally kill at zero alpha.
#[derive(Clone, Copy, Debug)]
pub struct Fade {
    /// Alpha lost per second.
    pub rate: Scalar,
    /// Remove fully transparent particles.
    pub kill_at_zero: bool,
}

impl Fade {
    pub fn new(rate: Scalar, kill_at_zero: bool) -> Self {
        assert!(rate >= 0.0);
        Fade { rate, kill_at_zero }
    }

    /// The per-particle half: lower every alpha in `chunk`; returns its length.
    fn dim(&self, dt: Scalar, chunk: &mut [Particle]) -> usize {
        let da = self.rate * dt;
        for p in chunk.iter_mut() {
            p.alpha = (p.alpha - da).max(0.0);
        }
        chunk.len()
    }
}

impl Action for Fade {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "fade"
    }

    fn apply(&self, ctx: &mut ActionCtx<'_>, store: &mut SubDomainStore) -> ActionOutcome {
        let applied = store.bucket_slices_mut().map(|bucket| self.dim(ctx.dt, bucket)).sum();
        let killed = if self.kill_at_zero { store.retain(|p| p.alpha > 0.0) } else { 0 };
        ActionOutcome { applied, killed }
    }

    fn apply_chunk(
        &self,
        ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        // Killing needs the whole-store retain pass; stay serial.
        (!self.kill_at_zero).then(|| ActionOutcome::applied(self.dim(ctx.dt, chunk)))
    }

    fn draws_rng(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::{Interval, Rng64, Vec3};

    fn run(a: &dyn Action, s: &mut SubDomainStore) -> ActionOutcome {
        let mut rng = Rng64::new(1);
        let mut ctx = ActionCtx { dt: 1.0, frame: 0, rng: &mut rng };
        a.apply(&mut ctx, s)
    }

    fn store() -> SubDomainStore {
        SubDomainStore::new(Interval::new(-10.0, 10.0), Axis::X, 2)
    }

    #[test]
    fn kill_old_removes_only_old() {
        let mut s = store();
        for age in [0.5, 1.5, 2.5, 3.5] {
            let mut p = crate::Particle::at(Vec3::ZERO);
            p.age = age;
            s.insert(p);
        }
        let out = run(&KillOld::new(2.0), &mut s);
        assert_eq!(out.killed, 2);
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|p| p.age <= 2.0));
    }

    #[test]
    fn kill_below_ground() {
        let mut s = store();
        for y in [-1.0, 0.5, 2.0] {
            s.insert(crate::Particle::at(Vec3::new(0.0, y, 0.0)));
        }
        let out = run(&KillBelow::ground(0.0), &mut s);
        assert_eq!(out.killed, 1);
        assert!(s.iter().all(|p| p.position.y >= 0.0));
    }

    #[test]
    fn kill_outside_box() {
        let mut s = store();
        s.insert(crate::Particle::at(Vec3::ZERO));
        s.insert(crate::Particle::at(Vec3::new(0.0, 50.0, 0.0)));
        let out = run(&KillOutside::new(Aabb::centered_cube(5.0)), &mut s);
        assert_eq!(out.killed, 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn fade_clamps_and_kills() {
        let mut s = store();
        let mut p = crate::Particle::at(Vec3::ZERO);
        p.alpha = 0.3;
        s.insert(p);
        s.insert(crate::Particle::at(Vec3::ZERO)); // alpha 1.0
        let out = run(&Fade::new(0.5, true), &mut s);
        assert_eq!(out.killed, 1);
        let survivor = s.iter().next().unwrap();
        assert!((survivor.alpha - 0.5).abs() < 1e-6);
    }

    #[test]
    fn fade_without_kill_keeps_transparent() {
        let mut s = store();
        let mut p = crate::Particle::at(Vec3::ZERO);
        p.alpha = 0.1;
        s.insert(p);
        let out = run(&Fade::new(1.0, false), &mut s);
        assert_eq!(out.killed, 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next().unwrap().alpha, 0.0);
    }
}
