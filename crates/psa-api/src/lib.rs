//! A McAllister-style Particle System API.
//!
//! The paper validates its model by completely rewriting David McAllister's
//! Particle System API (UNC TR 00-007) on top of the distributed model.
//! This crate is our equivalent of that user-facing layer: an
//! immediate-mode, stateful API in the spirit of the original —
//! generation *domains* ([`PDomain`]), a current-state context that stamps
//! new particles (`p_color`, `p_velocity_domain`, `p_size`), and per-frame
//! action calls (`p_source`, `p_gravity`, `p_bounce`, `p_kill_old`, …).
//! Every action call runs the `psa-core` action of that name: the API has
//! no physics of its own.
//!
//! Two ways to run it:
//!
//! * **immediate mode** — call the `p_*` methods on a [`Context`] each
//!   frame and read back the particles (single-process, like the original);
//! * **compiled mode** — [`Context::compile`] hands over the frame's
//!   `psa-core` action list with its emission shape and velocity model,
//!   for the cluster runtime to execute under the paper's model. Positions
//!   compile from `Point`, `Box` and `Disc`, velocities from `Point` and a
//!   solid `Sphere`; any other domain is refused.

pub mod context;
pub mod domain_shapes;
pub mod group;

pub use context::Context;
pub use domain_shapes::PDomain;
pub use group::ParticleGroup;
