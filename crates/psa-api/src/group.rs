//! Particle groups — the unit the immediate-mode API operates on.

use psa_core::{Particle, SubDomainStore};
use psa_math::{Axis, Interval, Vec3};

/// A named set of particles with a capacity cap, mirroring the original
/// API's `pGenParticleGroups`/`pSetMaxParticles`.
///
/// The particles sit in a one-bucket [`SubDomainStore`] — the layout
/// `run_sequential` gives the original library's one vector — so psa-core's
/// actions run on a group as they run on a calculator's store. With one
/// bucket a kill is a swap-remove sweep of that vector.
#[derive(Clone, Debug)]
pub struct ParticleGroup {
    pub name: String,
    pub(crate) store: SubDomainStore,
    max_particles: usize,
}

impl ParticleGroup {
    pub fn new(name: impl Into<String>, max_particles: usize) -> Self {
        let store = SubDomainStore::new(Interval::INFINITE, Axis::X, 1);
        ParticleGroup { name: name.into(), store, max_particles }
    }

    pub fn len(&self) -> usize {
        self.store.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    pub fn max_particles(&self) -> usize {
        self.max_particles
    }

    /// Add a particle unless the group is at capacity; returns whether it
    /// was admitted (the original API silently drops over-cap emissions).
    pub fn add(&mut self, p: Particle) -> bool {
        if self.store.len() >= self.max_particles {
            return false;
        }
        self.store.insert(p);
        true
    }

    /// The group's particles, in the order the actions leave them.
    pub fn particles(&self) -> &[Particle] {
        self.store.bucket_slices().next().unwrap_or_default()
    }

    /// Mean position — handy for tests and camera targeting.
    pub fn centroid(&self) -> Vec3 {
        if self.store.is_empty() {
            return Vec3::ZERO;
        }
        self.store.iter().fold(Vec3::ZERO, |acc, p| acc + p.position) / self.store.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_core::ParticleStore;

    #[test]
    fn capacity_is_enforced() {
        let mut g = ParticleGroup::new("g", 2);
        assert!(g.add(Particle::at(Vec3::ZERO)));
        assert!(g.add(Particle::at(Vec3::ONE)));
        assert!(!g.add(Particle::at(Vec3::X)), "over-cap emission dropped");
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn centroid() {
        let mut g = ParticleGroup::new("g", 10);
        assert_eq!(g.centroid(), Vec3::ZERO);
        g.add(Particle::at(Vec3::new(2.0, 0.0, 0.0)));
        g.add(Particle::at(Vec3::new(4.0, 2.0, 0.0)));
        assert_eq!(g.centroid(), Vec3::new(3.0, 1.0, 0.0));
    }

    /// A kill on the group's one-bucket store is the swap-remove sweep of
    /// `ParticleStore::retain_unordered`: the same survivors in the same
    /// order, wherever the group's particles lie.
    #[test]
    fn retain_removes() {
        let mut g = ParticleGroup::new("g", 10);
        let mut flat = ParticleStore::new();
        for x in [4.0, -3.0e9, 0.0, 5.0, 2.0e9, 1.0] {
            g.add(Particle::at(Vec3::new(x, 0.0, 0.0)));
            flat.push(Particle::at(Vec3::new(x, 0.0, 0.0)));
        }
        assert_eq!(g.store.retain(|p| p.position.x < 3.0), 3);
        assert_eq!(flat.retain_unordered(|p| p.position.x < 3.0), 3);
        assert_eq!(g.particles(), flat.as_slice());
    }
}
