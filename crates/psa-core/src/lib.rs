//! Particle data model for the IPDPS'05 cluster animation reproduction.
//!
//! This crate implements the *sequential* building blocks of the paper's
//! model (§3.1): particles with the four mandatory properties (position,
//! orientation, age, velocity), particle systems, per-system spatial
//! domains sliced along one axis, the sub-domain bucket storage the authors
//! introduced in their validation library (§4), the action taxonomy
//! (§3.1.5) and external collision objects.
//!
//! Everything here is single-process; the distribution logic (roles, frame
//! protocol, load balancing) lives in `psa-runtime`.

pub mod actions;
pub mod domain;
pub mod invariants;
pub mod kernel;
pub mod objects;
pub mod particle;
pub mod pool;
pub mod store;
pub mod subdomain;
pub mod system;

pub use actions::{Action, ActionCtx, ActionKind};
pub use domain::DomainMap;
pub use invariants::InvariantViolation;
pub use particle::{Particle, WIRE_BYTES};
pub use store::ParticleStore;
pub use subdomain::SubDomainStore;
pub use system::{Emitter, SystemId, SystemSpec};
