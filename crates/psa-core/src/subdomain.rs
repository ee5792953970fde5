//! Sub-domain bucket storage (paper §4).
//!
//! Instead of keeping all particles of a calculator's domain slice in one
//! vector, the validation library breaks the slice into `k` sub-slices and
//! stores each in a separate vector. Two operations become cheap:
//!
//! * **leaver detection** at the end of a frame only needs position checks,
//!   but re-bucketing localizes the work and keeps the donation path fast;
//!   the buckets' exact edges make both one test of two comparisons per
//!   particle;
//! * **donation** during load balancing takes whole buckets from the
//!   boundary end and only sorts the one straddling bucket, instead of
//!   sorting the entire domain population.

use crate::{Particle, ParticleStore};
use psa_math::{floor_isize, Axis, Interval, Scalar};

/// The bucket of `k` equal-width buckets over `slice` that holds `v`,
/// clamped to the edge buckets (callers must have already routed
/// out-of-slice particles to the exchange path). `floor_isize`, not
/// `floor`: the insert and the leaver scan take one per particle, and
/// `floor` is a libm call on the x86-64 baseline.
#[inline]
fn bucket_of(slice: Interval, k: usize, v: Scalar) -> usize {
    if slice.is_empty() {
        return 0;
    }
    let t = (v - slice.lo) / slice.width();
    floor_isize(t * k as Scalar).clamp(0, k as isize - 1) as usize
}

/// Particles per bucket from which a leaver scan tests exact bucket edges
/// instead of recomputing each particle's bucket: below it, finding the
/// edges would cost more than the divisions they save (a large cluster
/// scans many stores of a handful of particles, and a reshape clears the
/// edges).
const EDGE_MIN_PER_BUCKET: usize = 8;

/// The exact edges of `bucket_of`'s `k` buckets over `slice`: `k + 1`
/// values with `edges[0] = lo`, `edges[k] = hi` and, between them,
/// `edges[b]` the least float `v` with `bucket_of(slice, k, v) >= b`. Then
/// for every `v` the slice contains, `bucket_of(slice, k, v) == b` exactly
/// when `edges[b] <= v < edges[b + 1]`.
///
/// That holds because `bucket_of` is monotone non-decreasing in `v` on a
/// finite slice of positive width: the subtraction, the division by a
/// positive width, the product with `k`, `floor_isize` and the clamp are
/// each monotone under round-to-nearest. Each edge is found with
/// `bucket_of` itself, over the floats in their total order: from the
/// float nearest the real-number edge, steps of 1, 2, 4, … ulps bracket
/// it (one or two steps, as a rule), and bisection closes the bracket.
/// An edge near zero, among the subnormals, can sit millions of ulps from
/// that guess; there the doubling steps keep the search to about 64
/// calls. The edges replace what `edges` held (its buffer is reused); an
/// empty or non-finite slice has none and keeps the formula, and `edges`
/// is left empty.
fn exact_edges(slice: Interval, k: usize, edges: &mut Vec<Scalar>) {
    edges.clear();
    let (lo, hi) = (slice.lo, slice.hi);
    if slice.is_empty() || !lo.is_finite() || !hi.is_finite() || !slice.width().is_finite() {
        return;
    }
    // A float's place in the total order (`f32::total_cmp`'s key), and back.
    let key = |v: Scalar| {
        let b = v.to_bits() as i32;
        i64::from(b ^ (((b >> 31) as u32) >> 1) as i32)
    };
    let float = |key: i64| {
        let b = key as i32;
        Scalar::from_bits((b ^ (((b >> 31) as u32) >> 1) as i32) as u32)
    };
    edges.push(lo);
    for b in 1..k {
        // `bucket_of(lo) = 0 < b <= k - 1 = bucket_of(hi)` bounds every step.
        let reaches = |at: i64| bucket_of(slice, k, float(at)) >= b;
        let real = lo as f64 + (hi as f64 - lo as f64) * b as f64 / k as f64;
        let guess = key((real as Scalar).clamp(lo, hi));
        let (mut below, mut at) = (guess, guess);
        let mut step = 1;
        if reaches(guess) {
            while reaches(below) {
                (at, below) = (below, (below - step).max(key(lo)));
                step *= 2;
            }
        } else {
            while !reaches(at) {
                (below, at) = (at, (at + step).min(key(hi)));
                step *= 2;
            }
        }
        while at - below > 1 {
            let mid = below + (at - below) / 2;
            if reaches(mid) {
                at = mid;
            } else {
                below = mid;
            }
        }
        edges.push(float(at));
    }
    edges.push(hi);
}

/// Bit 31 of the result is set exactly when `v` is NaN or infinite: its
/// exponent field is then all ones, and one more exponent unit carries out
/// of it into bit 31. OR-ed over a walk, it tells whether any coordinate
/// was non-finite for about half of what three `is_finite` tests add to
/// the leaver scan per particle.
#[inline(always)]
fn exponent_carry(v: Scalar) -> u32 {
    (v.to_bits() & 0x7f80_0000) + 0x0080_0000
}

/// A calculator's local particle storage for one system: its domain slice
/// split into `k` equal-width buckets, each an independent [`ParticleStore`].
///
/// Bucket `b` holds the particles `bucket_of` files there. The store keeps
/// the float edges between buckets once a scan is large enough to want
/// them (see [`SubDomainStore::collect_leavers_into`]); a kill sweep can
/// hand its survivors straight on ([`SubDomainStore::retain_then`]).
#[derive(Clone, Debug)]
pub struct SubDomainStore {
    axis: Axis,
    slice: Interval,
    buckets: Vec<ParticleStore>,
    /// Particles over all buckets. Every method that changes a bucket's
    /// length keeps it, so asking the size costs no bucket walk — the
    /// frame asks once per (rank, system) and phase, and most pairs of a
    /// large cluster hold nothing.
    len: usize,
    /// Reused by `collect_leavers_into` for in-slice bucket movers, so the
    /// every-frame leaver scan allocates nothing after warm-up.
    mover_scratch: Vec<Particle>,
    /// The slice's exact bucket edges ([`exact_edges`]), or empty until a
    /// large enough scan asks for them; `reshape` clears them.
    edges: Vec<Scalar>,
}

impl SubDomainStore {
    /// Create an empty store over `slice` with `k >= 1` buckets.
    pub fn new(slice: Interval, axis: Axis, k: usize) -> Self {
        assert!(k >= 1, "need at least one sub-domain bucket");
        SubDomainStore {
            axis,
            slice,
            buckets: (0..k).map(|_| ParticleStore::new()).collect(),
            len: 0,
            mover_scratch: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// A store over no buckets, which holds nothing and allocates
    /// nothing: what an action list hands [`crate::Action::apply_then`] to
    /// learn whether an action is a whole-store killer. Nothing may be
    /// inserted into it.
    #[inline]
    pub(crate) fn unbucketed() -> Self {
        SubDomainStore {
            axis: Axis::X,
            slice: Interval::new(0.0, 0.0),
            buckets: Vec::new(),
            len: 0,
            mover_scratch: Vec::new(),
            edges: Vec::new(),
        }
    }

    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// The domain slice this store covers.
    pub fn slice(&self) -> Interval {
        self.slice
    }

    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total particles across all buckets.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a particle that belongs to this slice.
    ///
    /// Out-of-slice positions are accepted (they land in an edge bucket) so
    /// that a caller may insert first and let the next `collect_leavers`
    /// route them — matching the paper's "store in a different structure for
    /// future exchange" being an end-of-frame step, not an insert-time one.
    pub fn insert(&mut self, p: Particle) {
        let b = bucket_of(self.slice, self.buckets.len(), p.position.along(self.axis));
        self.buckets[b].push(p);
        self.len += 1;
    }

    pub fn extend<I: IntoIterator<Item = Particle>>(&mut self, it: I) {
        for p in it {
            self.insert(p);
        }
    }

    /// Apply `f` to every particle (compute-phase actions run through this).
    pub fn for_each_mut<F: FnMut(&mut Particle)>(&mut self, mut f: F) {
        for b in &mut self.buckets {
            for p in b.iter_mut() {
                f(p);
            }
        }
    }

    /// Mutable slice views of the buckets in order — the store's canonical
    /// particle order, which the chunked compute kernel
    /// ([`crate::kernel`]) decomposes into fixed-size chunks. The slices are
    /// disjoint, so they may be mutated from different worker threads.
    pub fn bucket_slices_mut(&mut self) -> impl Iterator<Item = &mut [Particle]> {
        self.buckets.iter_mut().map(ParticleStore::as_mut_slice)
    }

    /// Read-only slice views of the buckets, in the same canonical order.
    pub fn bucket_slices(&self) -> impl Iterator<Item = &[Particle]> {
        self.buckets.iter().map(ParticleStore::as_slice)
    }

    /// A copy of every particle in canonical order, allocated once.
    pub fn to_vec(&self) -> Vec<Particle> {
        let mut all = Vec::with_capacity(self.len());
        for bucket in self.bucket_slices() {
            all.extend_from_slice(bucket);
        }
        all
    }

    /// Iterate all particles immutably.
    pub fn iter(&self) -> impl Iterator<Item = &Particle> {
        self.buckets.iter().flat_map(|b| b.iter())
    }

    /// Remove particles failing `keep`; returns how many were removed.
    pub fn retain<F: FnMut(&Particle) -> bool>(&mut self, keep: F) -> usize {
        self.retain_then(keep, |_| {})
    }

    /// [`SubDomainStore::retain`] that hands the survivors to `tail` as the
    /// sweep finishes them, bucket by bucket
    /// ([`ParticleStore::retain_then`]): the blocks concatenate to the
    /// retained store in canonical order, so `tail` may run a pass that
    /// would otherwise follow the kill as a second walk.
    pub fn retain_then<K, T>(&mut self, mut keep: K, mut tail: T) -> usize
    where
        K: FnMut(&Particle) -> bool,
        T: FnMut(&mut [Particle]),
    {
        let removed: usize =
            self.buckets.iter_mut().map(|b| b.retain_then(&mut keep, &mut tail)).sum();
        self.len -= removed;
        removed
    }

    /// Remove and return every particle whose coordinate left this slice
    /// (the end-of-frame exchange staging, paper §3.2.3/§3.2.4), then
    /// re-bucket any particle that moved across bucket boundaries but stayed
    /// in the slice.
    pub fn collect_leavers(&mut self) -> Vec<Particle> {
        let mut leavers = Vec::new();
        self.collect_leavers_into(&mut leavers);
        leavers
    }

    /// [`SubDomainStore::collect_leavers`] into a caller-owned buffer — the
    /// allocation-free variant the frame hot path uses. Leavers are
    /// appended; the in-slice mover staging reuses an internal scratch
    /// buffer, so a warmed-up store allocates nothing here.
    ///
    /// A store of at least `EDGE_MIN_PER_BUCKET` (8) particles per bucket
    /// tests each particle against its bucket's exact edges (two
    /// comparisons); a smaller one, or one over a slice without edges,
    /// recomputes its bucket. Both sort every particle the same way.
    ///
    /// Returns whether every position the scan read is finite on all three
    /// axes: the scan is the one walk that reads every position each frame,
    /// so the executors' finite-position invariant rides it.
    pub fn collect_leavers_into(&mut self, leavers: &mut Vec<Particle>) -> bool {
        if self.len == 0 {
            return true;
        }
        let (slice, k) = (self.slice, self.buckets.len());
        let exact = self.len >= EDGE_MIN_PER_BUCKET * k && {
            if self.edges.is_empty() {
                exact_edges(slice, k, &mut self.edges);
            }
            !self.edges.is_empty()
        };
        if exact {
            let edges = std::mem::take(&mut self.edges);
            let finite = self.scan(leavers, |bi, v| v >= edges[bi] && v < edges[bi + 1]);
            self.edges = edges;
            finite
        } else {
            self.scan(leavers, |bi, v| slice.contains(v) && bucket_of(slice, k, v) == bi)
        }
    }

    /// The leaver scan: a particle for which `stays(bucket, coordinate)`
    /// holds stays where it is; any other leaves the slice if the slice
    /// does not contain it and moves bucket if it does. `stays` must hold
    /// exactly when the slice contains the coordinate and `bucket_of` puts
    /// it in that bucket. Returns whether every position it read is finite.
    fn scan<F: Fn(usize, Scalar) -> bool>(
        &mut self,
        leavers: &mut Vec<Particle>,
        stays: F,
    ) -> bool {
        let before = leavers.len();
        let axis = self.axis;
        let slice = self.slice;
        let mut non_finite = 0u32;
        debug_assert!(self.mover_scratch.is_empty());
        for (bi, b) in self.buckets.iter_mut().enumerate() {
            let mut i = 0;
            while i < b.len() {
                let q = b.as_slice()[i].position;
                non_finite |= exponent_carry(q.x) | exponent_carry(q.y) | exponent_carry(q.z);
                let v = q.along(axis);
                if stays(bi, v) {
                    i += 1;
                } else if !slice.contains(v) {
                    leavers.push(b.swap_remove(i));
                } else {
                    // still ours, but it crossed a bucket boundary
                    self.mover_scratch.push(b.swap_remove(i));
                }
            }
        }
        // Movers count again as `insert` re-files them.
        self.len -= (leavers.len() - before) + self.mover_scratch.len();
        // Re-insert in staging order (matches the historical behavior, which
        // the bit-reproducibility of seeded runs depends on).
        for i in 0..self.mover_scratch.len() {
            let p = self.mover_scratch[i];
            self.insert(p);
        }
        self.mover_scratch.clear();
        non_finite & 0x8000_0000 == 0
    }

    /// Donate the `count` particles nearest the **low** boundary (for a left
    /// neighbor). Whole low buckets are taken unsorted; only the straddling
    /// bucket is sorted — the §4 optimization the bucket storage exists for.
    /// Returns the donated particles and how many particles had to be
    /// sorted (the cost the executors charge).
    pub fn donate_low(&mut self, count: usize) -> (Vec<Particle>, usize) {
        let mut out = Vec::with_capacity(count.min(self.len()));
        let mut sorted = 0;
        for b in &mut self.buckets {
            if out.len() >= count {
                break;
            }
            let need = count - out.len();
            if b.len() <= need {
                out.append(&mut b.take_all());
            } else {
                sorted += b.len();
                b.sort_along(self.axis);
                out.extend(b.donate_low(need, self.axis));
            }
        }
        self.len -= out.len();
        (out, sorted)
    }

    /// Donate the `count` particles nearest the **high** boundary (for a
    /// right neighbor). Mirror image of [`Self::donate_low`].
    pub fn donate_high(&mut self, count: usize) -> (Vec<Particle>, usize) {
        let mut out = Vec::with_capacity(count.min(self.len()));
        let mut sorted = 0;
        for b in self.buckets.iter_mut().rev() {
            if out.len() >= count {
                break;
            }
            let need = count - out.len();
            if b.len() <= need {
                out.append(&mut b.take_all());
            } else {
                sorted += b.len();
                b.sort_along(self.axis);
                out.extend(b.donate_high(need, self.axis));
            }
        }
        self.len -= out.len();
        (out, sorted)
    }

    /// Replace the slice (after the manager broadcast new dimensions) and
    /// re-bucket everything into the new geometry. Particles now outside the
    /// new slice are returned for exchange.
    pub fn reshape(&mut self, new_slice: Interval) -> Vec<Particle> {
        let all = self.take_all();
        self.slice = new_slice;
        self.edges.clear();
        let axis = self.axis;
        let mut leavers = Vec::new();
        for p in all {
            if new_slice.contains(p.position.along(axis)) {
                self.insert(p);
            } else {
                leavers.push(p);
            }
        }
        leavers
    }

    /// Drain every particle: what [`reshape`](Self::reshape) re-buckets,
    /// and how a declared-dead rank's particles are confiscated.
    pub fn take_all(&mut self) -> Vec<Particle> {
        self.len = 0;
        self.buckets.iter_mut().flat_map(|b| b.take_all()).collect()
    }

    /// Extreme coordinate along the axis among held particles.
    pub fn extent(&self) -> Option<(Scalar, Scalar)> {
        let mut lo = Scalar::INFINITY;
        let mut hi = Scalar::NEG_INFINITY;
        let mut any = false;
        for b in &self.buckets {
            if let Some((l, h)) = b.extent_along(self.axis) {
                lo = lo.min(l);
                hi = hi.max(h);
                any = true;
            }
        }
        any.then_some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::Vec3;

    fn p(x: f32) -> Particle {
        Particle::at(Vec3::new(x, 0.0, 0.0))
    }

    fn store(k: usize) -> SubDomainStore {
        SubDomainStore::new(Interval::new(0.0, 10.0), Axis::X, k)
    }

    fn bucket_sizes(s: &SubDomainStore) -> Vec<usize> {
        s.bucket_slices().map(<[Particle]>::len).collect()
    }

    #[test]
    fn insert_routes_to_buckets() {
        let mut s = store(5);
        for x in [0.5, 2.5, 4.5, 6.5, 8.5] {
            s.insert(p(x));
        }
        assert_eq!(bucket_sizes(&s), vec![1, 1, 1, 1, 1]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn collect_leavers_takes_out_of_slice() {
        let mut s = store(4);
        s.insert(p(1.0));
        s.insert(p(9.0));
        // Move them via for_each_mut: one leaves left, one stays.
        s.for_each_mut(|q| q.position.x -= 2.0);
        let leavers = s.collect_leavers();
        assert_eq!(leavers.len(), 1);
        assert_eq!(leavers[0].position.x, -1.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn collect_leavers_rebuckets_movers() {
        let mut s = store(10);
        s.insert(p(0.5)); // bucket 0
        s.for_each_mut(|q| q.position.x = 9.5); // should end in bucket 9
        let leavers = s.collect_leavers();
        assert!(leavers.is_empty());
        let sizes = bucket_sizes(&s);
        assert_eq!(sizes[9], 1);
        assert_eq!(sizes[0], 0);
    }

    #[test]
    fn donate_low_takes_lowest() {
        let mut s = store(5);
        for x in [9.0, 1.0, 3.0, 7.0, 5.0, 0.5] {
            s.insert(p(x));
        }
        let (donated, _) = s.donate_low(3);
        let mut xs: Vec<f32> = donated.iter().map(|q| q.position.x).collect();
        xs.sort_by(f32::total_cmp);
        assert_eq!(xs, vec![0.5, 1.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|q| q.position.x >= 5.0));
    }

    #[test]
    fn donate_high_takes_highest() {
        let mut s = store(5);
        for x in [9.0, 1.0, 3.0, 7.0, 5.0, 0.5] {
            s.insert(p(x));
        }
        let (donated, _) = s.donate_high(2);
        let mut xs: Vec<f32> = donated.iter().map(|q| q.position.x).collect();
        xs.sort_by(f32::total_cmp);
        assert_eq!(xs, vec![7.0, 9.0]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn donate_straddling_bucket_is_exact() {
        // All particles in one bucket: donation must still pick the correct
        // extremes by sorting that bucket.
        let mut s = store(1);
        for x in [4.0, 2.0, 8.0, 6.0] {
            s.insert(p(x));
        }
        let (d, sorted) = s.donate_low(2);
        assert_eq!(sorted, 4, "the single straddling bucket must be sorted");
        let mut xs: Vec<f32> = d.iter().map(|q| q.position.x).collect();
        xs.sort_by(f32::total_cmp);
        assert_eq!(xs, vec![2.0, 4.0]);
    }

    /// The paper's §4 storage ablation, in the unit `CostModel::sort_time`
    /// charges: donating 5 % of a uniformly spread population sorts the
    /// whole store when it is one vector, and about one bucket's worth
    /// when it is `k` sub-domain vectors.
    #[test]
    fn bucketed_donation_sorts_one_bucket_not_the_store() {
        let n = 100_000;
        let sorted = |k: usize| {
            let mut rng = psa_math::Rng64::new(42);
            let mut s = store(k);
            for _ in 0..n {
                s.insert(p(rng.range(0.0, 10.0)));
            }
            let (donated, sorted) = s.donate_low(n / 20);
            assert_eq!(donated.len(), n / 20);
            sorted
        };
        assert_eq!(sorted(1), n);
        for k in [8, 32] {
            assert!(sorted(k) * 10 <= 11 * n / k, "{k} buckets sorted {}", sorted(k));
        }
    }

    #[test]
    fn donate_more_than_population() {
        let mut s = store(3);
        s.insert(p(1.0));
        let (d, sorted) = s.donate_high(10);
        assert_eq!(sorted, 0, "whole-bucket takes need no sort");
        assert_eq!(d.len(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn reshape_returns_new_leavers() {
        let mut s = store(4);
        for x in [1.0, 4.0, 6.0, 9.0] {
            s.insert(p(x));
        }
        let leavers = s.reshape(Interval::new(3.0, 7.0));
        assert_eq!(s.slice(), Interval::new(3.0, 7.0));
        assert_eq!(leavers.len(), 2);
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|q| (3.0..7.0).contains(&q.position.x)));
    }

    #[test]
    fn reshape_to_empty_slice_evicts_all() {
        let mut s = store(4);
        for x in [1.0, 2.0] {
            s.insert(p(x));
        }
        let leavers = s.reshape(Interval::new(5.0, 5.0));
        assert_eq!(leavers.len(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn retain_counts_removed() {
        let mut s = store(4);
        for x in [1.0, 2.0, 8.0, 9.0] {
            s.insert(p(x));
        }
        let removed = s.retain(|q| q.position.x < 5.0);
        assert_eq!(removed, 2);
        assert_eq!(s.len(), 2);
    }

    /// The kept count is the bucket sum after every method that changes a
    /// length, in any order and at any bucket count, on stores that empty
    /// and refill.
    #[test]
    fn the_count_is_the_bucket_sum_after_every_step() {
        let mut rng = psa_math::Rng64::new(0x5EED_C0DE);
        let at = |rng: &mut psa_math::Rng64| p(rng.range(-2.0, 12.0));
        for k in [1, 3, 8] {
            for run in 0..40 {
                let mut s = store(k);
                for step in 0..60 {
                    let mut leavers = vec![p(99.0)];
                    match rng.below(8) {
                        0 => s.insert(at(&mut rng)),
                        1 => {
                            let n = rng.below(24);
                            s.extend((0..n).map(|_| at(&mut rng)).collect::<Vec<_>>());
                        }
                        2 => {
                            let cut = rng.range(-1.0, 11.0);
                            s.retain(|q| q.position.x < cut);
                        }
                        3 => {
                            s.for_each_mut(|q| q.position.x += rng.range(-3.0, 3.0));
                            s.collect_leavers_into(&mut leavers);
                        }
                        4 => drop(s.donate_low(rng.below(s.len() + 3))),
                        5 => drop(s.donate_high(rng.below(s.len() + 3))),
                        6 => {
                            let lo = rng.range(-1.0, 8.0);
                            let width = if rng.below(4) == 0 { 0.0 } else { rng.range(0.0, 8.0) };
                            drop(s.reshape(Interval::new(lo, lo + width)));
                        }
                        _ => drop(s.take_all()),
                    }
                    let sum: usize = bucket_sizes(&s).iter().sum();
                    assert_eq!(s.len(), sum, "k {k}, run {run}, step {step}");
                    assert_eq!(s.is_empty(), sum == 0, "k {k}, run {run}, step {step}");
                    assert_eq!(leavers.first().map(|q| q.position.x), Some(99.0), "leavers append");
                }
            }
        }
    }

    /// The bucket whose exact edges hold `v`, if any.
    fn edge_bucket(edges: &[Scalar], v: Scalar) -> Option<usize> {
        (0..edges.len() - 1).find(|&b| v >= edges[b] && v < edges[b + 1])
    }

    /// Negative, tiny (width 1e-3), huge (width 1e6), straddling zero and
    /// far from it.
    const EDGE_SLICES: [(Scalar, Scalar); 7] = [
        (-7.5, -2.25),
        (-1.0e6, -3.0),
        (3.0, 3.001),
        (-0.0005, 0.0005),
        (0.0, 1.0e6),
        (-5.0e5, 5.0e5),
        (1234.5, 1234.501),
    ];

    /// Every edge is the least float `bucket_of` puts at or above its
    /// bucket, and for every coordinate — the edges, 1 to 3 ulps either
    /// side of them, ±0, the slice bounds and random values in and around
    /// the slice — the edges pick `bucket_of`'s bucket, or none off the
    /// slice.
    #[test]
    fn exact_edges_sort_every_coordinate_as_bucket_of_does() {
        let mut rng = psa_math::Rng64::new(0xED6E);
        for k in [2, 3, 8, 16] {
            for (lo, hi) in EDGE_SLICES {
                let slice = Interval::new(lo, hi);
                let at = format!("k {k}, slice [{lo}, {hi})");
                let mut edges = Vec::new();
                exact_edges(slice, k, &mut edges);
                assert_eq!((edges.len(), edges[0], edges[k]), (k + 1, lo, hi), "{at}");
                assert!(edges.windows(2).all(|w| w[0] <= w[1]), "{at}: {edges:?}");
                for (b, &e) in edges.iter().enumerate().take(k).skip(1) {
                    assert!(bucket_of(slice, k, e) >= b, "{at}: edge {b} = {e}");
                    assert!(bucket_of(slice, k, e.next_down()) < b, "{at}: edge {b} = {e}");
                }
                let mut probes = vec![0.0, -0.0, lo, hi, lo.next_down(), hi.next_down()];
                for &e in &edges {
                    let (mut up, mut down) = (e, e);
                    probes.push(e);
                    for _ in 0..3 {
                        (up, down) = (up.next_up(), down.next_down());
                        probes.extend([up, down]);
                    }
                }
                let width = hi - lo;
                probes.extend((0..500).map(|_| rng.range(lo - width / 4.0, hi + width / 4.0)));
                for v in probes {
                    let want = slice.contains(v).then(|| bucket_of(slice, k, v));
                    assert_eq!(edge_bucket(&edges, v), want, "{at}: v = {v:e}");
                }
            }
        }
        // Slices without edges keep the formula.
        let mut edges = vec![7.0];
        exact_edges(Interval::new(2.0, 2.0), 4, &mut edges);
        assert_eq!(edges, []);
        exact_edges(Interval::new(-3.0e38, 3.0e38), 4, &mut edges);
        assert_eq!(edges, [], "an infinite width");
        exact_edges(Interval::new(1.0, 2.0), 1, &mut edges);
        assert_eq!(edges, [1.0, 2.0]);
    }

    /// A scan on exact edges leaves, keeps and re-files every particle as
    /// the formula does, in the same order: both scans of the same store
    /// yield the same leavers and the same buckets, bit for bit, for
    /// coordinates near every edge, off the slice, infinite and NaN.
    #[test]
    fn a_scan_on_exact_edges_is_the_scan_on_bucket_of() {
        let mut rng = psa_math::Rng64::new(0x5CA4);
        for k in [1, 3, 8, 16] {
            for (lo, hi) in EDGE_SLICES {
                let slice = Interval::new(lo, hi);
                let mut edges = Vec::new();
                exact_edges(slice, k, &mut edges);
                let mut s = SubDomainStore::new(slice, Axis::X, k);
                let width = hi - lo;
                for i in 0..(EDGE_MIN_PER_BUCKET * k + 400) {
                    s.insert(p(rng.range(lo, hi)));
                    let e = edges[i % edges.len()];
                    let x = match i % 7 {
                        0 => e.next_down(),
                        1 => e,
                        2 => e.next_up(),
                        3 => rng.range(lo - width, hi + width),
                        4 if i % 5 == 0 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3],
                        _ => rng.range(lo, hi),
                    };
                    s.buckets[rng.below(k)].push(p(x));
                    s.len += 1;
                }
                let mut formula = s.clone();
                let (mut got, mut want) = (Vec::new(), Vec::new());
                s.collect_leavers_into(&mut got);
                assert!(!s.edges.is_empty(), "a store this size scans on its edges");
                formula.scan(&mut want, |bi, v| slice.contains(v) && bucket_of(slice, k, v) == bi);
                let bits = |ps: &[Particle]| -> Vec<u32> {
                    ps.iter().map(|q| q.position.x.to_bits()).collect()
                };
                assert_eq!(bits(&got), bits(&want), "k {k}, [{lo}, {hi})");
                for (a, b) in s.bucket_slices().zip(formula.bucket_slices()) {
                    assert_eq!(bits(a), bits(b), "k {k}, [{lo}, {hi})");
                }
                assert_eq!(s.len(), formula.len());
            }
        }
    }

    /// The scan says whether every position it read is finite, on the
    /// formula and on exact edges, whatever the axis of the bad coordinate;
    /// the largest finite floats and a subnormal stay finite.
    #[test]
    fn the_scan_reports_a_non_finite_position_on_any_axis() {
        let odd = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN, 1e-40];
        for n in [3, EDGE_MIN_PER_BUCKET * 4] {
            for (axis, v) in (0..3).flat_map(|axis| odd.map(|v| (axis, v))) {
                let mut s = store(4);
                s.extend((0..n).map(|i| p(i as f32 * 10.0 / n as f32)));
                assert!(s.collect_leavers_into(&mut Vec::new()), "{n} finite particles");
                let mut q = p(5.0);
                *[&mut q.position.x, &mut q.position.y, &mut q.position.z][axis] = v;
                s.insert(q);
                let finite = s.collect_leavers_into(&mut Vec::new());
                assert_eq!(finite, v.is_finite(), "{n} particles, {v} on axis {axis}");
            }
        }
    }

    #[test]
    fn edges_wait_for_a_large_store_and_follow_a_reshape() {
        let mut s = store(4);
        s.extend((0..EDGE_MIN_PER_BUCKET * 4 - 1).map(|i| p(i as f32 * 0.3)));
        s.collect_leavers();
        assert!(s.edges.is_empty(), "a small store keeps the formula");
        s.insert(p(9.9));
        s.collect_leavers();
        let mut edges = Vec::new();
        exact_edges(s.slice(), 4, &mut edges);
        assert_eq!(s.edges, edges);
        s.reshape(Interval::new(0.0, 5.0));
        assert!(s.edges.is_empty(), "a reshape drops the old slice's edges");
    }

    #[test]
    fn extent_across_buckets() {
        let mut s = store(8);
        for x in [2.0, 5.0, 7.5] {
            s.insert(p(x));
        }
        assert_eq!(s.extent(), Some((2.0, 7.5)));
        assert_eq!(store(3).extent(), None);
    }
}
