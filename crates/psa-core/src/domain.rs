//! Per-system spatial domains (paper §3.1.4).
//!
//! Each particle system's space is divided into `n` contiguous slices along
//! one axis, slice `i` owned by calculator `i`. *All* processes know *all*
//! boundaries, so any process can compute the owner of any position — that
//! is what lets a migrating particle be sent directly to its new owner
//! instead of broadcast (paper §3.1.4), and what lets the manager hand out
//! balancing orders that calculators can validate locally.

use psa_math::{Axis, Interval, Scalar};

/// The boundaries of one particle system's decomposition: `n` contiguous
/// half-open slices of the system's space along `axis`.
///
/// Invariants (checked by [`DomainMap::validate`] and maintained by every
/// mutator):
/// * boundaries are non-decreasing;
/// * slice `i` is `[cuts[i], cuts[i+1])`;
/// * the union of slices is exactly the original space interval.
#[derive(Clone, Debug, PartialEq)]
pub struct DomainMap {
    axis: Axis,
    /// `n + 1` boundary positions; slice `i` = `[cuts[i], cuts[i+1])`.
    cuts: Vec<Scalar>,
}

impl DomainMap {
    /// Split `space` into `n` equal slices along `axis` — the initial
    /// decomposition of Figure 1.
    pub fn split_even(space: Interval, axis: Axis, n: usize) -> Self {
        assert!(n > 0, "a domain map needs at least one calculator");
        let slices = space.split_even(n);
        let mut cuts = Vec::with_capacity(n + 1);
        cuts.push(space.lo);
        cuts.extend(slices.iter().map(|s| s.hi));
        let map = DomainMap { axis, cuts };
        map.validate().expect("even split must be valid");
        map
    }

    /// Build from explicit boundaries (used when the manager broadcasts new
    /// dimensions after balancing). `cuts.len()` must be ≥ 2 and sorted.
    pub fn from_cuts(axis: Axis, cuts: Vec<Scalar>) -> Result<Self, DomainError> {
        let map = DomainMap { axis, cuts };
        map.validate()?;
        Ok(map)
    }

    /// The decomposition axis.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// Number of slices (= number of calculators).
    pub fn len(&self) -> usize {
        self.cuts.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        false // a valid map always has ≥ 1 slice
    }

    /// The whole covered space.
    pub fn space(&self) -> Interval {
        Interval::new(self.cuts[0], *self.cuts.last().unwrap())
    }

    /// Slice owned by calculator `i`.
    pub fn slice(&self, i: usize) -> Interval {
        Interval::new(self.cuts[i], self.cuts[i + 1])
    }

    /// All slices in calculator order.
    pub fn slices(&self) -> impl Iterator<Item = Interval> + '_ {
        (0..self.len()).map(|i| self.slice(i))
    }

    /// Raw boundary positions (`n + 1` values).
    pub fn cuts(&self) -> &[Scalar] {
        &self.cuts
    }

    /// Which calculator owns coordinate `v`.
    ///
    /// Positions outside the covered space are clamped to the first/last
    /// slice: the paper's model never loses a particle to "nowhere" — a
    /// particle that out-runs the space still belongs to the edge domain
    /// (and is typically culled by a kill action, not by the domain system).
    pub fn owner_of(&self, v: Scalar) -> usize {
        let n = self.len();
        if v < self.cuts[0] {
            return 0;
        }
        // Binary search over boundaries for the slice whose [lo, hi) holds v.
        let mut i = match self.cuts.binary_search_by(|c| c.total_cmp(&v)) {
            Ok(i) => i,
            Err(ins) => ins - 1,
        };
        if i >= n {
            i = n - 1;
        }
        // Duplicate boundaries (slices squeezed empty by balancing) can make
        // the search land on an empty slice; walk to the slice that actually
        // contains v. Both loops run O(#empty neighbors) which is tiny.
        while i + 1 < n && v >= self.cuts[i + 1] {
            i += 1;
        }
        while i > 0 && v < self.cuts[i] {
            i -= 1;
        }
        i
    }

    /// Move the boundary between slice `i` and slice `i + 1` to `new_cut`.
    ///
    /// This is the "definition of new dimensions" step of the balancing
    /// protocol (paper §3.2.5): after a donor picks its particles, the
    /// shared boundary shifts so each process again only holds particles of
    /// its own domain. The new cut must stay within the two neighbors'
    /// combined extent; a NaN cut is in no extent and is refused.
    pub fn move_cut(&mut self, i: usize, new_cut: Scalar) -> Result<(), DomainError> {
        // Boundary `i` sits between slice `i` and slice `i + 1`, i.e. it is
        // `cuts[i + 1]`; the outer boundaries (space edges) are immutable.
        let idx = i + 1;
        if idx == 0 || idx >= self.cuts.len() - 1 {
            return Err(DomainError::NotAnInteriorBoundary { index: i });
        }
        // A range test, not two out-of-range comparisons: NaN compares false
        // with everything, so it is in no range.
        if !(self.cuts[idx - 1]..=self.cuts[idx + 1]).contains(&new_cut) {
            return Err(DomainError::CutOutOfRange {
                index: i,
                cut: new_cut,
                lo: self.cuts[idx - 1],
                hi: self.cuts[idx + 1],
            });
        }
        self.cuts[idx] = new_cut;
        debug_assert!(self.validate().is_ok());
        Ok(())
    }

    /// Check all invariants. Cheap (O(n)), run in debug assertions after
    /// every mutation and by property tests.
    pub fn validate(&self) -> Result<(), DomainError> {
        if self.cuts.len() < 2 {
            return Err(DomainError::TooFewCuts { cuts: self.cuts.len() });
        }
        for (i, w) in self.cuts.windows(2).enumerate() {
            if w[0].is_nan() || w[1].is_nan() {
                return Err(DomainError::NanBoundary { index: i });
            }
            if w[0] > w[1] {
                return Err(DomainError::Unsorted { index: i, a: w[0], b: w[1] });
            }
        }
        Ok(())
    }
}

/// Errors from domain construction and boundary updates.
#[derive(Clone, Debug, PartialEq)]
pub enum DomainError {
    TooFewCuts { cuts: usize },
    Unsorted { index: usize, a: Scalar, b: Scalar },
    NanBoundary { index: usize },
    NotAnInteriorBoundary { index: usize },
    CutOutOfRange { index: usize, cut: Scalar, lo: Scalar, hi: Scalar },
}

impl std::fmt::Display for DomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainError::TooFewCuts { cuts } => {
                write!(f, "domain map needs >= 2 boundaries, got {cuts}")
            }
            DomainError::Unsorted { index, a, b } => {
                write!(f, "boundaries out of order at {index}: {a} > {b}")
            }
            DomainError::NanBoundary { index } => write!(f, "NaN boundary at {index}"),
            DomainError::NotAnInteriorBoundary { index } => {
                write!(f, "boundary {index} is not interior; outer boundaries are fixed")
            }
            DomainError::CutOutOfRange { index, cut, lo, hi } => {
                write!(f, "new cut {cut} for boundary {index} outside neighbor extent [{lo}, {hi}]")
            }
        }
    }
}

impl std::error::Error for DomainError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_owner_assignment() {
        // Figure 1: [-10, 10) split four ways; P1..P4 own successive slices.
        let map = DomainMap::split_even(Interval::new(-10.0, 10.0), Axis::X, 4);
        assert_eq!(map.len(), 4);
        assert_eq!(map.owner_of(-10.0), 0);
        assert_eq!(map.owner_of(-5.1), 0);
        assert_eq!(map.owner_of(-5.0), 1);
        assert_eq!(map.owner_of(-0.01), 1);
        assert_eq!(map.owner_of(0.0), 2);
        assert_eq!(map.owner_of(4.99), 2);
        assert_eq!(map.owner_of(5.0), 3);
        assert_eq!(map.owner_of(9.99), 3);
    }

    #[test]
    fn out_of_space_clamps_to_edges() {
        let map = DomainMap::split_even(Interval::new(0.0, 8.0), Axis::Y, 4);
        assert_eq!(map.owner_of(-100.0), 0);
        assert_eq!(map.owner_of(8.0), 3);
        assert_eq!(map.owner_of(1e9), 3);
    }

    #[test]
    fn every_point_has_exactly_one_owner() {
        let map = DomainMap::split_even(Interval::new(-3.0, 5.0), Axis::X, 7);
        for k in 0..800 {
            let v = -3.0 + 8.0 * (k as f32 / 800.0);
            let owner = map.owner_of(v);
            let hits = map
                .slices()
                .enumerate()
                .filter(|(_, s)| s.contains(v))
                .map(|(i, _)| i)
                .collect::<Vec<_>>();
            assert_eq!(hits, vec![owner], "point {v}");
        }
    }

    #[test]
    fn move_cut_shifts_ownership() {
        let mut map = DomainMap::split_even(Interval::new(0.0, 10.0), Axis::X, 2);
        assert_eq!(map.owner_of(4.0), 0);
        map.move_cut(0, 3.0).unwrap();
        assert_eq!(map.owner_of(4.0), 1);
        assert_eq!(map.slice(0), Interval::new(0.0, 3.0));
        assert_eq!(map.slice(1), Interval::new(3.0, 10.0));
    }

    #[test]
    fn move_cut_rejects_out_of_range() {
        let mut map = DomainMap::split_even(Interval::new(0.0, 9.0), Axis::X, 3);
        // boundary 0 sits between slices 0 and 1; it may move within [0, 6].
        assert!(map.move_cut(0, -1.0).is_err());
        assert!(map.move_cut(0, 7.0).is_err());
        assert!(map.move_cut(0, 0.0).is_ok()); // squeeze slice 0 empty: legal
        assert!(map.slice(0).is_empty());
    }

    #[test]
    fn move_cut_rejects_a_nan_cut() {
        let mut map = DomainMap::split_even(Interval::new(0.0, 9.0), Axis::X, 3);
        let err = map.move_cut(0, Scalar::NAN).expect_err("a NaN cut is in no extent");
        assert!(matches!(err, DomainError::CutOutOfRange { index: 0, lo: 0.0, hi: 6.0, .. }));
        assert_eq!(map, DomainMap::split_even(Interval::new(0.0, 9.0), Axis::X, 3));
    }

    #[test]
    fn move_cut_rejects_outer_boundaries() {
        let mut map = DomainMap::split_even(Interval::new(0.0, 4.0), Axis::X, 2);
        assert!(matches!(map.move_cut(1, 2.0), Err(DomainError::NotAnInteriorBoundary { .. })));
    }

    #[test]
    fn from_cuts_validation() {
        assert!(DomainMap::from_cuts(Axis::X, vec![0.0, 1.0, 2.0]).is_ok());
        assert!(matches!(
            DomainMap::from_cuts(Axis::X, vec![0.0]),
            Err(DomainError::TooFewCuts { .. })
        ));
        assert!(matches!(
            DomainMap::from_cuts(Axis::X, vec![0.0, 2.0, 1.0]),
            Err(DomainError::Unsorted { .. })
        ));
        assert!(matches!(
            DomainMap::from_cuts(Axis::X, vec![0.0, f32::NAN]),
            Err(DomainError::NanBoundary { .. })
        ));
    }

    #[test]
    fn infinite_space_central_concentration() {
        // The Table 1 IS-SLB effect: an odd split of the "infinite" space
        // puts the entire scene in the middle calculator's slice.
        let map = DomainMap::split_even(Interval::INFINITE, Axis::X, 5);
        for v in [-50.0, -1.0, 0.0, 1.0, 50.0] {
            assert_eq!(map.owner_of(v), 2);
        }
        // An even split shares the scene between the two central slices.
        let map = DomainMap::split_even(Interval::INFINITE, Axis::X, 4);
        assert_eq!(map.owner_of(-1.0), 1);
        assert_eq!(map.owner_of(1.0), 2);
    }

    #[test]
    fn empty_slice_owner_lookup_skips_it() {
        // Squeeze slice 1 to zero width; its old points now belong to 2.
        let mut map = DomainMap::split_even(Interval::new(0.0, 9.0), Axis::X, 3);
        map.move_cut(0, 6.0).unwrap(); // slice 0 = [0,6), slice 1 = [6,6)
        assert!(map.slice(1).is_empty());
        assert_eq!(map.owner_of(5.0), 0);
        // 6.0 falls on the degenerate boundary; owner must be a slice that
        // actually contains it — slice 2 = [6, 9).
        let o = map.owner_of(6.0);
        assert!(map.slice(o).contains(6.0), "owner slice must contain the point");
    }
}
