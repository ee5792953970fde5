//! The calculator role's core: one rank's particle stores, domain replicas
//! and balance bookkeeping, and every Figure-2 transition on them.
//!
//! Nothing here talks to a transport, reads a clock or records a trace:
//! the interleaved engine and the threaded calculator body both drive this
//! one state machine. Each transition returns the counts the engine's cost
//! model charges; the wall-clock driver ignores them.

use std::sync::Arc;

use psa_core::invariants::{self, InvariantViolation, StateHash};
use psa_core::kernel::{self, KernelRun};
use psa_core::{DomainMap, Particle, SubDomainStore};
use psa_math::{Interval, Scalar};

use super::{stream, take_batch, SkipStreak, AXIS, TAG_ACTIONS};
use crate::balance::LoadInfo;
use crate::checkpoint::{CalcSnapshot, StoreSnapshot};
use crate::config::{BalanceMode, RunConfig};
use crate::scene::SystemSetup;

/// What one balance order cost the donor: its new `cut` toward the
/// receiver and, for the engine's cost model, how many particles the store
/// `sorted` and `selected` (before the tie guard gave any back).
pub(crate) struct Donation {
    pub cut: Scalar,
    pub sorted: usize,
    pub selected: usize,
}

/// One calculator's share of one system: all a (calculator, system) visit reads or writes.
struct SystemState {
    store: SubDomainStore,
    /// Local replica of the system's domain map (all processes know all
    /// domains, paper §3.1.4), `Arc`-shared: a `Domains` broadcast carries
    /// one map for every calculator, not 1,024 ranks × 100 systems copies.
    domains: Arc<DomainMap>,
    /// This frame's compute time (pre-exchange population).
    compute_time: f64,
    /// Population the compute time was measured on.
    pre_count: usize,
    /// Particles the last exchange shipped away.
    migrated: usize,
    /// Replica of the manager's zero-order streak.
    streak: SkipStreak,
}

/// One calculator's state, one [`SystemState`] per system: a visit reads one record.
pub(crate) struct Calculator {
    /// This calculator's rank.
    c: usize,
    systems: Vec<SystemState>,
    /// Exchange scratch, reused every frame: the leaver scan's output and
    /// one staging buffer per destination ever routed to, in rank order
    /// (sparse — a dense spine per calculator is `ranks²` empty headers).
    leavers: Vec<Particle>,
    staged: Vec<(usize, Vec<Particle>)>,
    /// Balance donations waiting for the new domains to be in force.
    donations: Vec<(usize, Vec<Particle>)>,
}

impl Calculator {
    /// Calculator `c` over the initial `domains` (one map per system).
    pub(crate) fn new(c: usize, domains: Vec<Arc<DomainMap>>, buckets: usize) -> Self {
        let system = |domains: Arc<DomainMap>| SystemState {
            store: SubDomainStore::new(domains.slice(c), AXIS, buckets),
            domains,
            compute_time: 0.0,
            pre_count: 0,
            migrated: 0,
            streak: SkipStreak::default(),
        };
        Calculator {
            c,
            systems: domains.into_iter().map(system).collect(),
            leavers: Vec::new(),
            staged: Vec::new(),
            donations: Vec::new(),
        }
    }

    /// System `sys`'s store, read-only (counts and shipping).
    pub(crate) fn store(&self, sys: usize) -> &SubDomainStore {
        &self.systems[sys].store
    }

    /// This calculator's replica of system `sys`'s domain map.
    #[cfg(test)]
    pub(crate) fn replica(&self, sys: usize) -> &Arc<DomainMap> {
        &self.systems[sys].domains
    }

    /// Particles held across every system.
    pub(crate) fn total(&self) -> usize {
        self.systems.iter().map(|s| s.store.len()).sum()
    }

    /// Addition to the local set: newborn, migrating or donated particles.
    pub(crate) fn add(&mut self, sys: usize, batch: Vec<Particle>) {
        self.systems[sys].store.extend(batch);
    }

    /// Empty system `sys`'s store (a declared-dead rank's particles are
    /// confiscated and counted lost).
    pub(crate) fn take_all(&mut self, sys: usize) -> Vec<Particle> {
        self.systems[sys].store.take_all()
    }

    /// The action list ("Calculus" in Figure 2) on the kernel's serial
    /// path: one action stream across the whole store. Restarts the
    /// compute-time tally; the driver adds what the pass cost on its own
    /// clock with [`Self::add_compute_time`]. An empty store derives no
    /// stream and reports no work (what the kernel returns for it).
    pub(crate) fn calculus(
        &mut self,
        frame: u64,
        sys: usize,
        setup: &SystemSetup,
        cfg: &RunConfig,
    ) -> KernelRun {
        let c = self.c;
        let s = &mut self.systems[sys];
        (s.pre_count, s.compute_time) = (s.store.len().max(1), 0.0);
        if s.store.is_empty() {
            return KernelRun::default();
        }
        let rng = stream(cfg.seed, TAG_ACTIONS, frame, sys, c + 1);
        kernel::run_actions(&setup.actions, cfg.dt, frame, rng, &mut s.store, 0, 1)
    }

    /// Count `seconds` of calculus compute into the load this calculator
    /// will report.
    pub(crate) fn add_compute_time(&mut self, sys: usize, seconds: f64) {
        self.systems[sys].compute_time += seconds;
    }

    /// End-of-frame exchange staging: scan for leavers and route each to
    /// the owner of its position (all domains are globally known);
    /// out-of-space strays that route back here (`owner_of` clamps) return
    /// to the store. Returns how many are staged for other calculators —
    /// the migration count (§5.1) the load report carries — or the
    /// violation naming the first non-finite position the scan read: no
    /// slice can own such a particle, so conservation alone would not see
    /// it.
    pub(crate) fn stage_exchange(
        &mut self,
        frame: u64,
        sys: usize,
    ) -> Result<usize, InvariantViolation> {
        let s = &mut self.systems[sys];
        if !s.store.collect_leavers_into(&mut self.leavers) {
            let held = s.store.iter().chain(&self.leavers);
            invariants::check_finite_positions(frame, sys, self.c, held)?;
        }
        for p in self.leavers.drain(..) {
            let owner = s.domains.owner_of(p.position.along(AXIS));
            let i = self.staged.binary_search_by_key(&owner, |s| s.0).unwrap_or_else(|i| {
                self.staged.insert(i, (owner, Vec::new()));
                i
            });
            self.staged[i].1.push(p);
        }
        if let Ok(i) = self.staged.binary_search_by_key(&self.c, |s| s.0) {
            s.store.extend(self.staged[i].1.drain(..));
        }
        s.migrated = self.staged.iter().map(|s| s.1.len()).sum();
        Ok(s.migrated)
    }

    /// The batch staged for destination `d` (empty if none was).
    pub(crate) fn outgoing(&mut self, d: usize) -> Vec<Particle> {
        match self.staged.binary_search_by_key(&d, |s| s.0) {
            Ok(i) => take_batch(&mut self.staged[i].1),
            Err(_) => Vec::new(),
        }
    }

    /// The lowest-ranked destination that still has a staged batch, with
    /// that batch (the sparse fan-out ships exactly these, ascending).
    pub(crate) fn next_outgoing(&mut self) -> Option<(usize, Vec<Particle>)> {
        let (d, staged) = self.staged.iter_mut().find(|s| !s.1.is_empty())?;
        Some((*d, take_batch(staged)))
    }

    /// The load report (paper §3.2.4), its time rescaled to the
    /// post-exchange population, plus the last exchange's migration count.
    pub(crate) fn load(&self, sys: usize) -> (LoadInfo, usize) {
        let s = &self.systems[sys];
        let count = s.store.len();
        (LoadInfo { count, time: s.compute_time * count as f64 / s.pre_count as f64 }, s.migrated)
    }

    /// Will the manager issue `Orders` for system `sys` this frame? Both
    /// sides derive the zero-order streak from the same round history, so
    /// nobody waits for a message the other side never issues.
    pub(crate) fn expects_orders(&self, sys: usize, frame: u64, mode: &BalanceMode) -> bool {
        mode.is_dynamic() && !self.systems[sys].streak.skips(frame, mode)
    }

    /// Record the round total an `Orders` message carried.
    pub(crate) fn note_round(&mut self, sys: usize, round_orders: u32) {
        self.systems[sys].streak.note(round_orders);
    }

    /// The donor side of one balance order: take `amount` particles off the
    /// end facing rank `to`, place the new cut with [`donation_cut`], and
    /// apply the half-open tie guard — slices are `[lo, hi)`, so a selected
    /// particle tied exactly at the cut goes back into the store. The
    /// donation stays staged until the new domains are in force.
    pub(crate) fn donate(&mut self, sys: usize, to: usize, amount: usize) -> Donation {
        let store = &mut self.systems[sys].store;
        let low_side = to < self.c;
        let old_slice = store.slice();
        let amount = amount.min(store.len());
        let (mut donated, sorted) =
            if low_side { store.donate_low(amount) } else { store.donate_high(amount) };
        let selected = donated.len();
        let cut = donation_cut(low_side, &donated, store.extent(), old_slice);
        let leaves = |p: &Particle| (p.position.along(AXIS) < cut) == low_side;
        let give_back: Vec<Particle> = donated.iter().filter(|p| !leaves(p)).copied().collect();
        donated.retain(leaves);
        store.extend(give_back);
        self.donations.push((to, donated));
        Donation { cut, sorted, selected }
    }

    /// The staged donations as `(receiver, particles)`, in order decided.
    pub(crate) fn take_donations(&mut self) -> Vec<(usize, Vec<Particle>)> {
        std::mem::take(&mut self.donations)
    }

    /// Definition of local domains: adopt `dm` — the very map the manager
    /// broadcast, shared with every other calculator — for system `sys`
    /// and, if this calculator's own slice changed, reshape the store to it.
    /// Returns the population the reshape scanned, `None` if the slice
    /// stood. Out-of-space particles pool at the edge calculators
    /// (`owner_of` clamps) and stay until a kill action removes them; an
    /// in-space particle the new slice leaves out means a broken cut.
    pub(crate) fn install_domains(
        &mut self,
        frame: u64,
        sys: usize,
        dm: Arc<DomainMap>,
    ) -> Result<Option<usize>, InvariantViolation> {
        let (new_slice, space) = (dm.slice(self.c), dm.space());
        self.systems[sys].domains = dm;
        let store = &mut self.systems[sys].store;
        if store.slice() == new_slice {
            return Ok(None);
        }
        let scanned = store.len();
        let stray = store.reshape(new_slice);
        if let Some(p) = stray.iter().find(|p| space.contains(p.position.along(AXIS))) {
            let (c, x) = (self.c, p.position.along(AXIS));
            let detail =
                format!("rank {c}: in-space particle at {x} strays from its slice {new_slice}");
            return Err(InvariantViolation::PartitionBroken { frame, system: sys, detail });
        }
        store.extend(stray);
        Ok(Some(scanned))
    }

    /// The frame digest of system `sys`: how many particles this
    /// calculator holds and their checksum in the store's canonical
    /// (bucket-major) order — folded here, where the particles live, so a
    /// consumer that only counts and compares never needs the particles.
    /// Each bucket is handed to `ship` right after it is hashed, while it
    /// is in cache, so the threaded calculator builds a frame's splat
    /// records in this one walk of the store.
    pub(crate) fn digest(
        &self,
        sys: usize,
        mut ship: impl FnMut(&[Particle]),
    ) -> (usize, StateHash) {
        let store = &self.systems[sys].store;
        let mut hash = StateHash::new();
        for bucket in store.bucket_slices() {
            hash.extend(bucket);
            ship(bucket);
        }
        (store.len(), hash)
    }

    /// Frame-boundary state, particles in bucket-major order.
    pub(crate) fn snapshot(&self) -> CalcSnapshot {
        let store = |s: &SystemState| StoreSnapshot {
            slice: s.store.slice(),
            buckets: s.store.bucket_count(),
            particles: s.store.to_vec(),
        };
        CalcSnapshot {
            stores: self.systems.iter().map(store).collect(),
            cuts: self.systems.iter().map(|s| s.domains.cuts().to_vec()).collect(),
            compute_time: self.systems.iter().map(|s| s.compute_time).collect(),
            pre_count: self.systems.iter().map(|s| s.pre_count).collect(),
        }
    }

    /// Rewind to `snap` (shape-checked by the caller, bucket counts
    /// included, its cuts parsed into `domains`). Re-inserting the
    /// particles in captured order rebuilds the stores byte-identically:
    /// bucket assignment is a pure function of position and within-bucket
    /// order is append order. At a frame boundary the streak replica equals
    /// the manager's (`streak`).
    pub(crate) fn restore(
        &mut self,
        snap: &CalcSnapshot,
        domains: Vec<Arc<DomainMap>>,
        streak: &[u32],
    ) {
        for (sys, (s, dm)) in self.systems.iter_mut().zip(domains).enumerate() {
            let ss = &snap.stores[sys];
            s.store = SubDomainStore::new(ss.slice, AXIS, s.store.bucket_count());
            s.store.extend(ss.particles.iter().copied());
            (s.domains, s.compute_time) = (dm, snap.compute_time[sys]);
            (s.pre_count, s.streak) = (snap.pre_count[sys], SkipStreak(streak[sys]));
        }
        self.leavers.clear();
        self.staged.iter_mut().for_each(|s| s.1.clear());
        self.donations.clear();
    }
}

/// Compute the new domain cut after a donation (shared by every executor
/// that rebalances).
///
/// `low_side` is true when donating toward the *left* (lower) neighbor.
/// `kept` is the donor's remaining extent along the axis. The cut is placed
/// midway between the donated extreme and the kept extreme, falling back to
/// the old slice edge when one side is empty.
pub fn donation_cut(
    low_side: bool,
    donated: &[Particle],
    kept: Option<(Scalar, Scalar)>,
    old_slice: Interval,
) -> Scalar {
    let axis = AXIS;
    if donated.is_empty() {
        return if low_side { old_slice.lo } else { old_slice.hi };
    }
    let cut = if low_side {
        // Donor keeps [cut, hi): kept_min >= cut always holds for any cut
        // <= kept_min, and donated particles at exactly `cut` are returned
        // to the donor by the caller's tie guard.
        let donated_max =
            donated.iter().map(|p| p.position.along(axis)).fold(Scalar::NEG_INFINITY, Scalar::max);
        match kept {
            Some((kept_min, _)) => 0.5 * (donated_max + kept_min),
            None => old_slice.hi,
        }
    } else {
        // Donor keeps [lo, cut): the cut must be STRICTLY above kept_max or
        // kept particles fall outside the half-open slice. When the
        // midpoint collapses onto kept_max (tied positions — e.g. a whole
        // emission cohort from a point source), fall back to the smallest
        // donated coordinate strictly above kept_max; if none exists the
        // donation degenerates and the boundary stays put (the caller's tie
        // guard returns every donated particle to the donor).
        let donated_min =
            donated.iter().map(|p| p.position.along(axis)).fold(Scalar::INFINITY, Scalar::min);
        match kept {
            Some((_, kept_max)) => {
                let mid = 0.5 * (kept_max + donated_min);
                if mid > kept_max {
                    mid
                } else {
                    let next = donated
                        .iter()
                        .map(|p| p.position.along(axis))
                        .filter(|v| *v > kept_max)
                        .fold(Scalar::INFINITY, Scalar::min);
                    if next.is_finite() {
                        next
                    } else {
                        old_slice.hi
                    }
                }
            }
            None => old_slice.lo,
        }
    };
    // Stray particles can sit *outside* the donor's slice (finite-space
    // workloads let positions overshoot the space edge between exchanges),
    // and a thin donation can then place the midpoint beyond the domain
    // boundary's legal range — `move_cut` would reject the round. The new
    // boundary always lies within the donor's old slice (donation only
    // shrinks the donor), so clamping there is exact, and a no-op for
    // infinite spaces.
    cut.clamp(old_slice.lo, old_slice.hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::{Rng64, Vec3};

    fn at(x: Scalar) -> Particle {
        Particle::at(Vec3::new(x, 0.0, 0.0))
    }

    /// Calculator `c` of `n` over an even split of [0, 10), one system.
    fn calc(c: usize, n: usize) -> Calculator {
        let dm = DomainMap::split_even(Interval::new(0.0, 10.0), AXIS, n);
        Calculator::new(c, vec![Arc::new(dm)], 4)
    }

    #[test]
    fn stage_exchange_conserves_and_routes_to_owners() {
        let mut rng = Rng64::new(0xE7C4);
        let mut k = calc(1, 4); // holds [2.5, 5.0)
        for round in 0..20 {
            // Scatter a population over (and a little beyond) the space; the
            // store clamps out-of-slice inserts into its edge buckets and the
            // scan is what finds them.
            let moved: Vec<Particle> = (0..200).map(|_| at(rng.range(-3.0, 13.0))).collect();
            let owner = |p: &Particle| k.replica(0).owner_of(p.position.x);
            let away = moved.iter().filter(|p| owner(p) != 1).count();
            let before = k.store(0).len() + moved.len();
            k.add(0, moved);
            assert_eq!(k.stage_exchange(round, 0), Ok(away), "round {round}");
            assert_eq!(k.load(0).1, away);
            let (mut shipped, mut last) = (0, None);
            while let Some((d, batch)) = k.next_outgoing() {
                assert!(last < Some(d) && d != 1, "destinations ascend and skip self");
                assert!(batch.iter().all(|p| k.replica(0).owner_of(p.position.x) == d));
                (shipped, last) = (shipped + batch.len(), Some(d));
            }
            assert_eq!(k.store(0).len() + shipped, before, "kept + shipped == before");
            assert_eq!(shipped, away);
            assert!((0..4).all(|d| k.outgoing(d).is_empty()), "staging drained");
        }
        // The dense fan-out takes each destination's batch exactly once.
        k.add(0, vec![at(1.0), at(9.0), at(9.5)]);
        assert_eq!(k.stage_exchange(20, 0), Ok(3));
        assert_eq!((k.outgoing(0).len(), k.outgoing(3).len(), k.outgoing(3).len()), (1, 2, 0));
    }

    /// The one-walk ship hashes what the digest alone hashes and hands over
    /// exactly `to_vec`: on an empty store, one bucket, eight buckets, and
    /// eight buckets after a leaver scan re-filed and shipped particles.
    #[test]
    fn digest_with_a_copy_is_the_digest_and_the_stores_canonical_copy() {
        let mut rng = Rng64::new(0x5419);
        let dm = Arc::new(DomainMap::split_even(Interval::new(0.0, 10.0), AXIS, 2));
        let (mut one, mut eight) =
            (Calculator::new(0, vec![dm.clone()], 1), Calculator::new(0, vec![dm], 8));
        let check = |k: &Calculator, case: &str| {
            let mut copy = vec![at(-1.0)];
            let (alive, hash) = k.digest(0, |bucket| copy.extend_from_slice(bucket));
            assert_eq!((alive, hash), k.digest(0, |_| ()), "{case}");
            let mut want = StateHash::new();
            want.extend(k.store(0).iter());
            assert_eq!(hash, want, "{case}");
            assert_eq!(alive, k.store(0).len(), "{case}");
            assert_eq!(copy[0], at(-1.0), "{case}: appended, not overwritten");
            assert!(copy[1..] == k.store(0).to_vec()[..], "{case}");
        };
        check(&one, "empty");
        for k in [&mut one, &mut eight] {
            k.add(0, (0..300).map(|_| at(rng.range(0.0, 5.0))).collect());
        }
        check(&one, "one bucket");
        check(&eight, "eight buckets");
        eight.systems[0].store.for_each_mut(|p| p.position.x += 1.5);
        assert!(eight.stage_exchange(0, 0).is_ok_and(|sent| sent > 0));
        check(&eight, "eight buckets after a leaver scan");
    }

    #[test]
    fn install_domains_reinserts_strays_and_reports_only_real_reshapes() {
        let mut k = calc(0, 2); // [0, 5)
        k.add(0, vec![at(1.0), at(-2.0)]);
        let same = Arc::new(DomainMap::split_even(Interval::new(0.0, 10.0), AXIS, 2));
        assert_eq!(k.install_domains(0, 0, same), Ok(None), "unchanged slice: no reshape");
        let dm = Arc::new(DomainMap::from_cuts(AXIS, vec![0.0, 3.0, 10.0]).expect("valid cuts"));
        assert_eq!(k.install_domains(0, 0, dm.clone()), Ok(Some(2)));
        assert!(Arc::ptr_eq(k.replica(0), &dm), "the replica is the map it was handed");
        assert_eq!(k.store(0).slice(), Interval::new(0.0, 3.0));
        assert_eq!(k.store(0).len(), 2, "the out-of-space stray at -2 is back in the store");
    }

    /// A cut that leaves one of the calculator's own in-space particles
    /// outside its new slice is a typed violation in every build.
    #[test]
    fn an_in_space_stray_after_a_reshape_is_a_broken_partition() {
        let mut k = calc(0, 2); // [0, 5)
        k.add(0, vec![at(1.0), at(4.0)]);
        let dm = Arc::new(DomainMap::from_cuts(AXIS, vec![0.0, 3.0, 10.0]).expect("valid cuts"));
        match k.install_domains(7, 0, dm) {
            Err(InvariantViolation::PartitionBroken { frame: 7, system: 0, detail }) => {
                assert!(detail.contains("at 4 strays"), "{detail}");
            }
            other => panic!("expected a broken partition, got {other:?}"),
        }
    }

    /// The leaver scan reads every position: a NaN or infinite coordinate
    /// on any axis, in a kept particle or a leaver, fails the staging typed.
    #[test]
    fn a_non_finite_position_fails_the_exchange_staging() {
        for bad in [Vec3::new(1.0, f32::NAN, 0.0), Vec3::new(f32::INFINITY, 0.0, 0.0)] {
            let mut k = calc(1, 4);
            k.add(0, vec![at(3.0), Particle::at(bad), at(9.0)]);
            match k.stage_exchange(5, 0) {
                Err(InvariantViolation::NonFinitePosition {
                    frame: 5, rank: 1, position, ..
                }) => {
                    assert_eq!(position[1].to_bits(), bad.y.to_bits());
                }
                other => panic!("{bad:?}: expected a non-finite position, got {other:?}"),
            }
        }
    }
}
