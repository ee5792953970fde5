//! The particle record.
//!
//! Paper §3.1.2 mandates four basic properties for every particle
//! independent of the animation kind: position, orientation, age, velocity.
//! The validation library (a rewrite of McAllister's Particle System API)
//! also carries the rendering attributes every effect needs — color, size,
//! alpha and mass — so we include them here.
//!
//! Particles deliberately have **no identifier** (paper §3.1.2): identity is
//! (system, storage slot), and migration between processes only needs the
//! payload plus the system index.

use psa_math::{Scalar, Vec3};

/// One particle. `repr(C)`, 64 bytes, `Copy` — sized so a cache line holds
/// one particle and a migration message is a flat memcpy.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Particle {
    /// Position in space (paper-mandated).
    pub position: Vec3,
    /// Velocity (paper-mandated).
    pub velocity: Vec3,
    /// Orientation (paper-mandated) — a direction vector, e.g. the axis a
    /// snowflake sprite is drawn along.
    pub orientation: Vec3,
    /// RGB color in `[0,1]`.
    pub color: Vec3,
    /// Age in seconds since emission (paper-mandated).
    pub age: Scalar,
    /// Render size (world units).
    pub size: Scalar,
    /// Opacity in `[0,1]`.
    pub alpha: Scalar,
    /// Mass (used by gravity-as-force variants and bounce restitution).
    pub mass: Scalar,
}

/// Bytes a particle occupies on the wire when migrating between processes:
/// the 64-byte payload plus a 6-byte (system id, flags) header, matching the
/// ~70 B/particle implied by the paper's reported exchange volumes
/// (§5.1: 16 procs × ~560 particles ≈ 613 KB; §5.2: 16 × ~4000 ≈ 4375 KB).
pub const WIRE_BYTES: usize = std::mem::size_of::<Particle>() + 6;

impl Particle {
    /// A unit-mass, white, size-1 particle at the origin.
    pub fn at(position: Vec3) -> Self {
        Particle {
            position,
            velocity: Vec3::ZERO,
            orientation: Vec3::Y,
            color: Vec3::ONE,
            age: 0.0,
            size: 1.0,
            alpha: 1.0,
            mass: 1.0,
        }
    }

    /// Builder-style velocity.
    pub fn with_velocity(mut self, v: Vec3) -> Self {
        self.velocity = v;
        self
    }

    /// Builder-style color.
    pub fn with_color(mut self, c: Vec3) -> Self {
        self.color = c;
        self
    }

    /// Builder-style size.
    pub fn with_size(mut self, s: Scalar) -> Self {
        self.size = s;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_is_64_bytes() {
        // The wire-size accounting in netsim and the paper-matching exchange
        // volumes both assume this; fail loudly if the layout drifts.
        assert_eq!(std::mem::size_of::<Particle>(), 64);
        assert_eq!(WIRE_BYTES, 70);
    }

    #[test]
    fn builder_chain() {
        let p = Particle::at(Vec3::new(1.0, 2.0, 3.0))
            .with_velocity(Vec3::X)
            .with_color(Vec3::new(0.5, 0.5, 1.0))
            .with_size(2.5);
        assert_eq!(p.position, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(p.velocity, Vec3::X);
        assert_eq!(p.size, 2.5);
        assert_eq!(p.age, 0.0);
    }
}
