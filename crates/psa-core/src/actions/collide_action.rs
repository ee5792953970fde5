//! Collision with external objects (paper §3.2.2 / Algorithm 1's "simulate
//! collision with object obj").
//!
//! The paper classifies bounce as a property action: the positional
//! correction is local (penetration push-out), so no communication is
//! needed. Domain-crossing caused by a bounce is caught like any other
//! movement at the end-of-frame exchange.

use super::{Action, ActionCtx, ActionKind, ActionOutcome};
use crate::objects::ExternalObject;
use crate::{Particle, SubDomainStore};
use psa_math::Scalar;

/// Bounce particles off an external object.
#[derive(Clone, Debug)]
pub struct BounceOff {
    pub object: ExternalObject,
    /// Normal-velocity retention in `[0, 1]`.
    pub restitution: Scalar,
    /// Tangential damping in `[0, 1]`.
    pub friction: Scalar,
}

impl BounceOff {
    pub fn new(object: ExternalObject, restitution: Scalar, friction: Scalar) -> Self {
        assert!((0.0..=1.0).contains(&restitution));
        assert!((0.0..=1.0).contains(&friction));
        BounceOff { object, restitution, friction }
    }
}

impl Action for BounceOff {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "bounce"
    }

    fn apply_chunk(
        &self,
        _ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        for p in chunk.iter_mut() {
            self.object.bounce(&mut p.position, &mut p.velocity, self.restitution, self.friction);
        }
        Some(ActionOutcome::applied(chunk.len()))
    }

    fn draws_rng(&self) -> bool {
        false
    }

    fn cost_weight(&self) -> f64 {
        1.5 // contact test + occasional reflection per particle
    }
}

/// Remove particles that touch an external object (a sink — e.g. water
/// droplets disappearing into the pool of the fountain scene).
#[derive(Clone, Debug)]
pub struct DieOnContact {
    pub object: ExternalObject,
}

impl DieOnContact {
    pub fn new(object: ExternalObject) -> Self {
        DieOnContact { object }
    }
}

impl Action for DieOnContact {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "die-on-contact"
    }

    fn apply_then(
        &self,
        store: &mut SubDomainStore,
        tail: &mut dyn FnMut(&mut [Particle]),
    ) -> Option<ActionOutcome> {
        Some(super::lifecycle::kill(store, |p| self.object.contact(p.position).is_none(), tail))
    }

    fn draws_rng(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::{Axis, Interval, Rng64, Vec3};

    fn run(a: &dyn Action, s: &mut SubDomainStore) -> ActionOutcome {
        let mut rng = Rng64::new(1);
        let mut ctx = ActionCtx { dt: 0.1, frame: 0, rng: &mut rng };
        a.apply(&mut ctx, s)
    }

    #[test]
    fn bounce_fixes_penetrators() {
        let mut s = SubDomainStore::new(Interval::new(-10.0, 10.0), Axis::X, 2);
        let p =
            crate::Particle::at(Vec3::new(0.0, -0.5, 0.0)).with_velocity(Vec3::new(0.0, -2.0, 0.0));
        s.insert(p);
        run(&BounceOff::new(ExternalObject::ground(0.0), 1.0, 0.0), &mut s);
        let q = s.iter().next().unwrap();
        assert_eq!(q.position.y, 0.0);
        assert_eq!(q.velocity.y, 2.0);
    }

    #[test]
    fn die_on_contact_removes_penetrators() {
        let mut s = SubDomainStore::new(Interval::new(-10.0, 10.0), Axis::X, 2);
        s.insert(crate::Particle::at(Vec3::new(0.0, 1.0, 0.0)));
        s.insert(crate::Particle::at(Vec3::new(0.0, -1.0, 0.0)));
        let out = run(&DieOnContact::new(ExternalObject::ground(0.0)), &mut s);
        assert_eq!(out.killed, 1);
        assert_eq!(s.len(), 1);
        assert!(s.iter().next().unwrap().position.y > 0.0);
    }

    #[test]
    #[should_panic]
    fn bounce_rejects_bad_restitution() {
        let _ = BounceOff::new(ExternalObject::ground(0.0), 2.0, 0.0);
    }
}
