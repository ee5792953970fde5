//! Flat particle storage with O(1) unordered removal.

use crate::Particle;
use psa_math::{Axis, Scalar};

/// Particles per block of the fused passes: a kill sweep hands its
/// survivors on in blocks of this size, and a fused run of actions
/// applies each block of a bucket before the next. 256 particles of 64
/// bytes are 16 KiB, which stays in L1 while every action of the run
/// touches it.
pub(crate) const BLOCK: usize = 256;

/// A growable set of particles.
///
/// The store is ordering-agnostic: the model never relies on particle order
/// except transiently during load-balance donation, where particles are
/// sorted along the decomposition axis (paper §3.2.5). Removal therefore
/// uses `swap_remove`.
#[derive(Clone, Debug, Default)]
pub struct ParticleStore {
    items: Vec<Particle>,
}

impl ParticleStore {
    pub fn new() -> Self {
        ParticleStore { items: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        ParticleStore { items: Vec::with_capacity(cap) }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    #[inline]
    pub fn push(&mut self, p: Particle) {
        self.items.push(p);
    }

    pub fn extend_from_slice(&mut self, ps: &[Particle]) {
        self.items.extend_from_slice(ps);
    }

    /// O(1) unordered removal.
    #[inline]
    pub fn swap_remove(&mut self, i: usize) -> Particle {
        self.items.swap_remove(i)
    }

    pub fn clear(&mut self) {
        self.items.clear();
    }

    #[inline]
    pub fn as_slice(&self) -> &[Particle] {
        &self.items
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Particle] {
        &mut self.items
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Particle> {
        self.items.iter()
    }

    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Particle> {
        self.items.iter_mut()
    }

    /// Keep only particles satisfying `f` (order not preserved); returns the
    /// number removed. Implemented as a forward swap_remove sweep so it is
    /// O(n) regardless of how many die — the kill actions run every frame on
    /// 400k-particle systems.
    pub fn retain_unordered<F: FnMut(&Particle) -> bool>(&mut self, f: F) -> usize {
        self.retain_then(f, |_| {})
    }

    /// [`ParticleStore::retain_unordered`] that hands the survivors to
    /// `tail` in blocks of at most `BLOCK` (256) as the sweep finishes them.
    ///
    /// A `swap_remove` only writes the cursor's slot and shrinks the end,
    /// so every slot behind the cursor is final: `tail` sees each survivor
    /// once, after `keep` has judged it, in exactly the order a pass over
    /// the retained store would visit — the blocks concatenate to it.
    pub fn retain_then<K, T>(&mut self, mut keep: K, mut tail: T) -> usize
    where
        K: FnMut(&Particle) -> bool,
        T: FnMut(&mut [Particle]),
    {
        let before = self.items.len();
        let mut done = 0;
        while done < self.items.len() {
            // Judge until a block of survivors sits behind the cursor or
            // the store ends.
            let (mut i, end) = (done, done + BLOCK);
            while i < end && i < self.items.len() {
                if keep(&self.items[i]) {
                    i += 1;
                } else {
                    self.items.swap_remove(i);
                }
            }
            if i > done {
                tail(&mut self.items[done..i]);
            }
            done = i;
        }
        before - self.items.len()
    }

    /// Take everything: the returned vector *is* the store's buffer, so the
    /// allocation leaves with it and the store is left empty with no
    /// capacity (it grows again on the next insert).
    pub fn take_all(&mut self) -> Vec<Particle> {
        std::mem::take(&mut self.items)
    }

    /// Sort particles by their coordinate along `axis` (ascending).
    ///
    /// Donation during load balancing requires the donor to pick particles
    /// from the boundary end of its slice (paper §3.2.5), which this enables.
    pub fn sort_along(&mut self, axis: Axis) {
        self.items
            .sort_unstable_by(|a, b| a.position.along(axis).total_cmp(&b.position.along(axis)));
    }

    /// Split off the `count` particles with the **lowest** coordinates along
    /// `axis` (donation to the left neighbor). Returns the donated particles.
    ///
    /// The §3.2.5 boundary contract — only the particles nearest the domain
    /// boundary may be shipped — is enforced here, not merely documented: an
    /// unsorted store is sorted before splitting. Callers that already
    /// sorted (the sub-domain donation path) pay one O(n) monotonicity scan.
    pub fn donate_low(&mut self, count: usize, axis: Axis) -> Vec<Particle> {
        self.ensure_sorted(axis);
        let count = count.min(self.items.len());
        let tail = self.items.split_off(count);
        std::mem::replace(&mut self.items, tail)
    }

    /// Split off the `count` particles with the **highest** coordinates
    /// along `axis` (donation to the right neighbor). Mirror of
    /// [`ParticleStore::donate_low`], including the sortedness enforcement.
    pub fn donate_high(&mut self, count: usize, axis: Axis) -> Vec<Particle> {
        self.ensure_sorted(axis);
        let count = count.min(self.items.len());
        self.items.split_off(self.items.len() - count)
    }

    /// Sort along `axis` unless already sorted. The repair (rather than a
    /// silent wrong donation) is what makes `donate_low`/`donate_high` safe
    /// to call on any store state.
    fn ensure_sorted(&mut self, axis: Axis) {
        let sorted = self
            .items
            .windows(2)
            .all(|w| w[0].position.along(axis).total_cmp(&w[1].position.along(axis)).is_le());
        if !sorted {
            self.sort_along(axis);
        }
    }

    /// Min/max coordinate along `axis`, or `None` when empty.
    ///
    /// Contract: the result is consistent with [`ParticleStore::sort_along`]
    /// — `(lo, hi)` are exactly the first and last coordinates a sorted
    /// store would expose. Both use `total_cmp` order, so a NaN coordinate
    /// *surfaces* in the extent (NaN sorts above `+inf` / below `-inf` in
    /// the IEEE total order) instead of being silently dropped the way
    /// `f32::min`/`f32::max` folding would drop it. Silently dropping NaN
    /// here let a corrupted particle evade every domain slice while the
    /// extent still looked finite; callers that must reject non-finite
    /// positions outright should run `invariants::check_finite_positions`.
    pub fn extent_along(&self, axis: Axis) -> Option<(Scalar, Scalar)> {
        let mut coords = self.items.iter().map(|p| p.position.along(axis));
        let first = coords.next()?;
        let (mut lo, mut hi) = (first, first);
        for v in coords {
            if v.total_cmp(&lo).is_lt() {
                lo = v;
            }
            if v.total_cmp(&hi).is_gt() {
                hi = v;
            }
        }
        Some((lo, hi))
    }
}

impl FromIterator<Particle> for ParticleStore {
    fn from_iter<T: IntoIterator<Item = Particle>>(iter: T) -> Self {
        ParticleStore { items: iter.into_iter().collect() }
    }
}

impl<'a> IntoIterator for &'a ParticleStore {
    type Item = &'a Particle;
    type IntoIter = std::slice::Iter<'a, Particle>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl Extend<Particle> for ParticleStore {
    fn extend<T: IntoIterator<Item = Particle>>(&mut self, iter: T) {
        self.items.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::Vec3;

    fn p(x: f32) -> Particle {
        Particle::at(Vec3::new(x, 0.0, 0.0))
    }

    #[test]
    fn push_len_iter() {
        let mut s = ParticleStore::new();
        assert!(s.is_empty());
        s.push(p(1.0));
        s.push(p(2.0));
        assert_eq!(s.len(), 2);
        let xs: Vec<f32> = s.iter().map(|q| q.position.x).collect();
        assert_eq!(xs, vec![1.0, 2.0]);
    }

    #[test]
    fn retain_unordered_counts() {
        let mut s: ParticleStore = (0..10).map(|i| p(i as f32)).collect();
        let removed = s.retain_unordered(|q| q.position.x < 5.0);
        assert_eq!(removed, 5);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|q| q.position.x < 5.0));
    }

    /// The blocks a kill sweep hands on concatenate to the store it
    /// leaves, each at most `BLOCK` long, each survivor judged before it
    /// is handed on and handed on once — at every size around a block.
    #[test]
    fn retain_then_hands_on_exactly_the_retained_store() {
        let mut rng = psa_math::Rng64::new(0x7A11);
        for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17, 2000] {
            for cut in [0.0, 0.3, 0.5, 1.0] {
                let xs: Vec<f32> = (0..n).map(|_| rng.unit()).collect();
                let mut s: ParticleStore = xs.iter().map(|&x| p(x)).collect();
                // The forward swap_remove sweep, spelled out.
                let mut kept = xs.clone();
                let mut i = 0;
                while i < kept.len() {
                    if kept[i] >= cut {
                        i += 1;
                    } else {
                        kept.swap_remove(i);
                    }
                }
                let mut handed = Vec::new();
                let removed = s.retain_then(
                    |q| {
                        assert!(q.position.y == 0.0, "judged after it was handed on");
                        q.position.x >= cut
                    },
                    |block| {
                        assert!(!block.is_empty() && block.len() <= BLOCK);
                        for q in block.iter_mut() {
                            handed.push(q.position.x);
                            q.position.y = 1.0;
                        }
                    },
                );
                assert_eq!(removed, n - kept.len(), "{n} at {cut}");
                assert_eq!(handed, kept, "{n} at {cut}");
                assert!(s.iter().all(|q| q.position.y == 1.0), "{n} at {cut}");
            }
        }
    }

    #[test]
    fn sort_and_donate_low_high() {
        let mut s: ParticleStore = [5.0, 1.0, 3.0, 2.0, 4.0].iter().map(|&x| p(x)).collect();
        s.sort_along(Axis::X);
        let low = s.donate_low(2, Axis::X);
        assert_eq!(low.iter().map(|q| q.position.x).collect::<Vec<_>>(), vec![1.0, 2.0]);
        let high = s.donate_high(2, Axis::X);
        assert_eq!(high.iter().map(|q| q.position.x).collect::<Vec<_>>(), vec![4.0, 5.0]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.as_slice()[0].position.x, 3.0);
    }

    #[test]
    fn donate_more_than_available_is_clamped() {
        let mut s: ParticleStore = [1.0, 2.0].iter().map(|&x| p(x)).collect();
        s.sort_along(Axis::X);
        let got = s.donate_high(10, Axis::X);
        assert_eq!(got.len(), 2);
        assert!(s.is_empty());
        assert!(s.donate_low(3, Axis::X).is_empty());
    }

    #[test]
    fn donate_on_unsorted_store_still_ships_the_extremes() {
        // Regression: before the sortedness enforcement, donating from an
        // unsorted store silently shipped whatever happened to sit at the
        // vector ends — interior particles crossed the domain boundary.
        let mut s: ParticleStore = [5.0, 1.0, 9.0, 3.0, 7.0].iter().map(|&x| p(x)).collect();
        let low = s.donate_low(2, Axis::X); // no sort_along first
        let mut xs: Vec<f32> = low.iter().map(|q| q.position.x).collect();
        xs.sort_by(f32::total_cmp);
        assert_eq!(xs, vec![1.0, 3.0], "must ship the true low extremes");
        // The store was left sorted by the repair; scramble it again.
        let mut s2: ParticleStore = [2.0, 8.0, 0.5, 6.0].iter().map(|&x| p(x)).collect();
        let high = s2.donate_high(2, Axis::X);
        let mut hs: Vec<f32> = high.iter().map(|q| q.position.x).collect();
        hs.sort_by(f32::total_cmp);
        assert_eq!(hs, vec![6.0, 8.0], "must ship the true high extremes");
        assert!(s2.iter().all(|q| q.position.x < 6.0));
    }

    #[test]
    fn extent_along_axis() {
        let s: ParticleStore = [3.0, -1.0, 7.0].iter().map(|&x| p(x)).collect();
        assert_eq!(s.extent_along(Axis::X), Some((-1.0, 7.0)));
        assert_eq!(ParticleStore::new().extent_along(Axis::X), None);
    }

    #[test]
    fn extent_surfaces_nan_instead_of_dropping_it() {
        // f32::min/max folding silently skips NaN; the total_cmp contract
        // must surface it as the hi bound (positive NaN sorts above +inf).
        let s: ParticleStore = [1.0, f32::NAN, 3.0].iter().map(|&x| p(x)).collect();
        let (lo, hi) = s.extent_along(Axis::X).unwrap();
        assert_eq!(lo, 1.0);
        assert!(hi.is_nan(), "NaN coordinate must surface in the extent, got {hi}");
        // Negative NaN sorts below -inf and must surface as the lo bound.
        let s2: ParticleStore =
            [1.0, f32::from_bits(0xFFC0_0000), 3.0].iter().map(|&x| p(x)).collect();
        let (lo2, hi2) = s2.extent_along(Axis::X).unwrap();
        assert!(lo2.is_nan());
        assert_eq!(hi2, 3.0);
    }

    #[test]
    fn extent_matches_sorted_endpoints() {
        let mut s: ParticleStore =
            [5.0, -2.5, 0.0, 9.75, -2.5, 3.0].iter().map(|&x| p(x)).collect();
        let (lo, hi) = s.extent_along(Axis::X).unwrap();
        s.sort_along(Axis::X);
        assert_eq!(lo, s.as_slice().first().unwrap().position.x);
        assert_eq!(hi, s.as_slice().last().unwrap().position.x);
    }

    #[test]
    fn take_all_empties() {
        let mut s: ParticleStore = (0..4).map(|i| p(i as f32)).collect();
        let all = s.take_all();
        assert_eq!(all.len(), 4);
        assert!(s.is_empty());
    }
}
