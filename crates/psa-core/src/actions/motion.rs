//! The move step (paper §3.2.3) — the single position-changing action.
//!
//! "During the actions that alter the positioning of the particles, there is
//! no need of communication between the processes. However, when moving a
//! particle, the process must verify whether the particle left its domain."
//! The verification/staging half lives in `SubDomainStore::collect_leavers`;
//! this action is the integration half.

use super::{Action, ActionCtx, ActionKind, ActionOutcome};
use crate::Particle;

/// Semi-implicit Euler integration: `x += v·dt`, then `age += dt`.
///
/// (Force actions already updated `v` this frame, so using the *new*
/// velocity here is the symplectic-Euler scheme that keeps fountains from
/// gaining energy.)
#[derive(Clone, Copy, Debug, Default)]
pub struct MoveParticles;

impl Action for MoveParticles {
    fn kind(&self) -> ActionKind {
        ActionKind::Position
    }

    fn name(&self) -> &'static str {
        "move"
    }

    fn apply_chunk(
        &self,
        ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        let dt = ctx.dt;
        for p in chunk.iter_mut() {
            p.position += p.velocity * dt;
            p.age += dt;
        }
        Some(ActionOutcome::applied(chunk.len()))
    }

    fn draws_rng(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SubDomainStore;
    use psa_math::{Axis, Interval, Rng64, Vec3};

    #[test]
    fn move_integrates_position_and_age() {
        let mut s = SubDomainStore::new(Interval::new(-10.0, 10.0), Axis::X, 2);
        s.insert(crate::Particle::at(Vec3::ZERO).with_velocity(Vec3::new(2.0, 1.0, 0.0)));
        let mut rng = Rng64::new(1);
        let mut ctx = ActionCtx { dt: 0.5, frame: 3, rng: &mut rng };
        let out = MoveParticles.apply(&mut ctx, &mut s);
        assert_eq!(out.applied, 1);
        let p = s.iter().next().unwrap();
        assert_eq!(p.position, Vec3::new(1.0, 0.5, 0.0));
        assert_eq!(p.age, 0.5);
    }

    #[test]
    fn move_then_collect_leavers_routes_migration() {
        let mut s = SubDomainStore::new(Interval::new(0.0, 4.0), Axis::X, 4);
        s.insert(crate::Particle::at(Vec3::new(3.5, 0.0, 0.0)).with_velocity(Vec3::X * 2.0));
        let mut rng = Rng64::new(1);
        let mut ctx = ActionCtx { dt: 1.0, frame: 0, rng: &mut rng };
        MoveParticles.apply(&mut ctx, &mut s);
        let leavers = s.collect_leavers();
        assert_eq!(leavers.len(), 1);
        assert_eq!(leavers[0].position.x, 5.5);
        assert!(s.is_empty());
    }
}
