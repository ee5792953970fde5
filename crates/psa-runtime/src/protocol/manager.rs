//! The manager role's core: the authoritative domain maps, the balance
//! round counter and zero-order streaks, and the creation staging — with
//! every Figure-2 transition on them written once.
//!
//! Like the calculator core this file holds no transport, clock or trace;
//! the engine and the threaded manager body drive the same state machine.

use psa_core::domain::DomainError;
use psa_core::{DomainMap, Emitter, Particle, WIRE_BYTES};
use psa_math::Scalar;

use super::{stream, take_batch, SkipStreak, AXIS, TAG_CREATE};
use crate::balance::{self, LoadInfo, Transfer};
use crate::balancers;
use crate::config::BalanceMode;
use crate::report::FrameReport;

/// What the balance phase of one (frame, system) comes to.
pub(crate) enum Round {
    /// Static balancing: the phase is the synchronization step only.
    Static,
    /// Short-circuited by the zero-order streak: no `Orders` this round.
    Skipped,
    /// An evaluated round over the `present` ranks (those that reported,
    /// ascending). `transfers` name real ranks, in boundary order, so a
    /// multi-pair donor's sequential donations line up on every executor;
    /// `decentralized` strategies need no manager round-trip.
    Decided { present: Vec<usize>, transfers: Vec<Transfer>, decentralized: bool },
}

/// The manager's state.
pub(crate) struct Manager {
    /// The authoritative domain map of every system.
    domains: Vec<DomainMap>,
    /// Every system's emitter, prepared once for the run.
    emitters: Vec<Emitter>,
    /// Evaluated (non-short-circuited) balance rounds so far; drives the
    /// paper's start-pair alternation and the hierarchical level schedule.
    round: u64,
    /// Per-system consecutive zero-order rounds (balance short-circuit).
    streak: Vec<SkipStreak>,
    /// Virtual particles per real particle in the run statistics.
    scale: f64,
    /// Creation staging, reused every frame: the emitted cohort waiting to
    /// be routed, and one batch spine per calculator.
    newborn: Vec<Particle>,
    batches: Vec<Vec<Particle>>,
}

impl Manager {
    /// A manager over `n` calculators, with each system's initial domain
    /// map and emitter.
    pub(crate) fn new(
        domains: Vec<DomainMap>,
        emitters: Vec<Emitter>,
        n: usize,
        scale: f64,
    ) -> Self {
        Manager {
            round: 0,
            streak: vec![SkipStreak::default(); domains.len()],
            domains,
            emitters,
            scale,
            newborn: Vec::new(),
            batches: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    pub(crate) fn domains(&self, sys: usize) -> &DomainMap {
        &self.domains[sys]
    }

    pub(crate) fn round(&self) -> u64 {
        self.round
    }

    pub(crate) fn idle_rounds(&self) -> Vec<u32> {
        self.streak.iter().map(|s| s.0).collect()
    }

    /// Creation (paper §3.2.1): [`emit`](Self::emit) system `sys`'s cohort
    /// for `frame`, then [`route`](Self::route) it. Returns how many
    /// particles were created.
    pub(crate) fn create(&mut self, frame: u64, sys: usize, seed: u64) -> usize {
        let created = self.emit(frame, sys, seed);
        self.route(sys);
        created
    }

    /// The RNG half of creation: draw system `sys`'s cohort for `frame`
    /// into the staging buffer. Depends on nothing a balance round can
    /// change, so a driver may run it a step ahead of the protocol.
    pub(crate) fn emit(&mut self, frame: u64, sys: usize, seed: u64) -> usize {
        let mut rng = stream(seed, TAG_CREATE, frame, sys, 0);
        self.newborn.clear();
        self.emitters[sys].emit_cohort_into(frame, &mut rng, &mut self.newborn);
        self.newborn.len()
    }

    /// The routing half: move each staged newborn to the batch of the
    /// calculator that owns its position *now* — at send time, because the
    /// balance round since [`emit`](Self::emit) may have moved `sys`'s cuts.
    pub(crate) fn route(&mut self, sys: usize) {
        let dm = &self.domains[sys];
        for p in self.newborn.drain(..) {
            self.batches[dm.owner_of(p.position.along(AXIS))].push(p);
        }
    }

    /// Calculator `c`'s newborn batch.
    pub(crate) fn batch_for(&mut self, c: usize) -> Vec<Particle> {
        take_batch(&mut self.batches[c])
    }

    /// Tally the migration count one load report carried into the frame's
    /// statistics, rounded per rank.
    pub(crate) fn note_load(&self, migrated: usize, fr: &mut FrameReport) {
        let virt = migrated as f64 * self.scale;
        fr.migrated += virt as u64;
        fr.migration_bytes += (virt * WIRE_BYTES as f64).round() as u64;
    }

    /// The balancing decision for system `sys` in `frame`: one strategy
    /// round behind the [`balance::Balancer`] trait, over the *present*
    /// set — the ranks with a report in `loads` — in present-index space,
    /// with transfers mapped back to real ranks (the trait's contract,
    /// checked by [`balance::validate_round`]).
    ///
    /// A dead balancer stops costing: after `idle_after` consecutive
    /// zero-order rounds the round is skipped (re-probing every
    /// `reprobe_period` frames), so the BENCH_5 dead zone recovers toward
    /// the SLB makespan instead of paying the order/broadcast round-trip
    /// for nothing. The skip is a pure function of decided-transfer
    /// history, so every executor skips the same rounds; only evaluated
    /// rounds count toward `round`.
    pub(crate) fn decide_round(
        &mut self,
        sys: usize,
        frame: u64,
        loads: &[Option<LoadInfo>],
        speeds: &[f64],
        mode: &BalanceMode,
    ) -> Round {
        let (Some(strategy), Some(bcfg)) = (balancers::strategy_for(mode), mode.balancer_config())
        else {
            return Round::Static;
        };
        if self.streak[sys].skips(frame, mode) {
            return Round::Skipped;
        }
        let present: Vec<usize> = (0..loads.len()).filter(|&c| loads[c].is_some()).collect();
        let pl: Vec<LoadInfo> = loads.iter().flatten().copied().collect();
        let powers: Vec<f64> = present.iter().map(|&c| speeds[c]).collect();
        let mut transfers = if present.len() >= 2 {
            strategy.decide(&pl, &powers, &present, self.round, bcfg)
        } else {
            Vec::new()
        };
        self.round += 1;
        self.streak[sys].note(transfers.len() as u32);
        debug_assert!(
            balance::validate_round(&transfers, &pl, &present, strategy.multi_pair()).is_ok(),
            "{} produced an invalid round: {:?}",
            strategy.name(),
            balance::validate_round(&transfers, &pl, &present, strategy.multi_pair())
        );
        transfers.sort_by_key(|t| t.donor.min(t.receiver));
        Round::Decided { present, transfers, decentralized: strategy.decentralized() }
    }

    /// Move every boundary between `donor` and `receiver` to `cut`.
    /// Adjacent pairs reduce to the single §3.2.5 `move_cut`; declared-dead
    /// ranks between the pair ride along (their collapsed zero-width slices
    /// all sit at the shared edge, so the sweep is range-safe both ways).
    pub(crate) fn apply_cut(
        &mut self,
        sys: usize,
        donor: usize,
        receiver: usize,
        cut: Scalar,
    ) -> Result<(), DomainError> {
        let dm = &mut self.domains[sys];
        if donor < receiver {
            (donor..receiver).try_for_each(|b| dm.move_cut(b, cut))
        } else {
            (receiver..donor).rev().try_for_each(|b| dm.move_cut(b, cut))
        }
    }

    /// Collapse dead rank `c`'s slice of system `sys` (and any dead run up
    /// to the absorbing neighbor) to zero width: the alive rank above
    /// inherits the space, else the one below. `owner_of` walks past
    /// zero-width slices, so routing never again targets `c`.
    pub(crate) fn collapse_dead(
        &mut self,
        sys: usize,
        c: usize,
        dead: &[bool],
    ) -> Result<(), DomainError> {
        let dm = &mut self.domains[sys];
        if let Some(a) = (c + 1..dead.len()).find(|&r| !dead[r]) {
            let lo = dm.cuts()[c];
            (c..a).try_for_each(|b| dm.move_cut(b, lo))
        } else if let Some(b0) = (0..c).rev().find(|&r| !dead[r]) {
            let hi = dm.cuts()[c + 1];
            (b0..c).rev().try_for_each(|b| dm.move_cut(b, hi))
        } else {
            Ok(())
        }
    }

    /// Rewind to a snapshot's manager state (the cuts already parsed into
    /// `domains`); the creation staging is empty at a frame boundary.
    pub(crate) fn restore(&mut self, domains: Vec<DomainMap>, round: u64, idle_rounds: &[u32]) {
        self.domains = domains;
        self.round = round;
        self.streak = idle_rounds.iter().map(|&idle| SkipStreak(idle)).collect();
        self.newborn.clear();
        self.batches.iter_mut().for_each(Vec::clear);
    }
}

#[cfg(test)]
mod tests {
    use super::super::calculator::Calculator;
    use super::*;
    use crate::balance::BalancerConfig;
    use psa_core::SystemSpec;
    use psa_math::{Interval, Rng64};
    use std::sync::Arc;

    fn manager(n: usize, n_sys: usize) -> Manager {
        manager_emitting(n, n_sys, &SystemSpec::test_spec(0))
    }

    fn manager_emitting(n: usize, n_sys: usize, spec: &SystemSpec) -> Manager {
        let dm = DomainMap::split_even(Interval::new(0.0, 10.0), AXIS, n);
        Manager::new(vec![dm; n_sys], vec![spec.emitter(); n_sys], n, 1.0)
    }

    fn li(count: usize) -> Option<LoadInfo> {
        Some(LoadInfo { count, time: count as f64 })
    }

    fn mode(idle_after: u32, reprobe_period: u64) -> BalanceMode {
        BalanceMode::Diffusive(BalancerConfig { idle_after, reprobe_period, ..Default::default() })
    }

    #[test]
    fn calculator_streak_replica_stays_in_lock_step_with_the_manager() {
        let (n, n_sys, mode) = (4, 3, mode(2, 5));
        let speeds = vec![1.0; n];
        for seed in 0..8u64 {
            let mut rng = Rng64::new(seed);
            let mut mgr = manager(n, n_sys);
            let dms = (0..n_sys).map(|s| Arc::new(mgr.domains(s).clone())).collect();
            let mut calc = Calculator::new(1, dms, 4);
            let (mut skipped, mut idle, mut busy) = (0, 0, 0);
            for frame in 0..120u64 {
                for sys in 0..n_sys {
                    // Mostly level loads (zero-order rounds that build a
                    // streak), now and then a spike that breaks it.
                    let spike = (rng.below(4) == 0).then(|| rng.below(n));
                    let loads: Vec<_> =
                        (0..n).map(|c| li(if spike == Some(c) { 500 } else { 100 })).collect();
                    let expects = calc.expects_orders(sys, frame, &mode);
                    match mgr.decide_round(sys, frame, &loads, &speeds, &mode) {
                        Round::Skipped => {
                            skipped += 1;
                            assert!(!expects, "seed {seed} frame {frame} sys {sys}: would hang");
                        }
                        Round::Decided { transfers, .. } => {
                            assert!(expects, "seed {seed} frame {frame} sys {sys}: orphan Orders");
                            *(if transfers.is_empty() { &mut idle } else { &mut busy }) += 1;
                            calc.note_round(sys, transfers.len() as u32);
                        }
                        Round::Static => unreachable!("dynamic mode"),
                    }
                }
            }
            assert!(skipped > 0 && idle > 0 && busy > 0, "history must exercise every branch");
        }
        // Static balancing never expects orders and never decides.
        let calc = Calculator::new(0, vec![Arc::new(manager(n, 1).domains(0).clone())], 4);
        assert!(!calc.expects_orders(0, 0, &BalanceMode::Static));
        let round =
            manager(n, 1).decide_round(0, 0, &vec![li(1); n], &speeds, &BalanceMode::Static);
        assert!(matches!(round, Round::Static));
    }

    #[test]
    fn a_cohort_emitted_a_step_ahead_routes_by_the_cuts_in_force_when_it_is_sent() {
        use psa_core::system::EmissionShape;
        use psa_math::Vec3;
        let mut spec = SystemSpec::test_spec(0);
        spec.emission = EmissionShape::Box { min: Vec3::ZERO, max: Vec3::splat(10.0) };
        let (n, seed, mode, speeds) = (4, 0xE317, mode(2, 5), vec![1.0; 4]);
        let batches = |m: &mut Manager| (0..n).map(|c| m.batch_for(c)).collect::<Vec<_>>();

        // Step k = (frame 3, system 0). The manager sends it, draws step
        // k+1's cohort (frame 4 of the same system — the worst case, its
        // cut is about to move), and only then runs step k's balance.
        let mut ahead = manager_emitting(n, 1, &spec);
        ahead.create(3, 0, seed);
        let sent = batches(&mut ahead);
        assert_eq!(ahead.emit(4, 0, seed), spec.emit_per_frame);
        let mut inline = manager_emitting(n, 1, &spec);
        inline.create(3, 0, seed);
        assert_eq!(batches(&mut inline), sent);

        let loads = vec![li(900), li(100), li(100), li(100)];
        let balance = |m: &mut Manager| {
            let Round::Decided { transfers, .. } = m.decide_round(0, 3, &loads, &speeds, &mode)
            else {
                panic!("first round is evaluated");
            };
            m.apply_cut(0, 0, 1, 1.0).expect("cut inside rank 0's slice");
            transfers
        };
        let decided = balance(&mut ahead);
        assert!(!decided.is_empty());
        assert_eq!(decided, balance(&mut inline), "the staged cohort is invisible to the round");
        assert_eq!((ahead.round(), ahead.idle_rounds()), (inline.round(), inline.idle_rounds()));
        assert_eq!(ahead.domains(0).cuts(), inline.domains(0).cuts());

        ahead.route(0);
        assert_eq!(inline.create(4, 0, seed), spec.emit_per_frame);
        let routed = batches(&mut ahead);
        assert_eq!(routed, batches(&mut inline), "emit + cut + route == create on the moved map");
        assert_eq!(routed.iter().map(Vec::len).sum::<usize>(), spec.emit_per_frame);
        assert!(routed[0].iter().all(|p| p.position.x < 1.0), "rank 0 owns [0, 1) now");
        assert!(routed[1].iter().any(|p| p.position.x < 2.5), "rank 1 took over [1, 2.5)");
    }

    #[test]
    fn two_calculators_balance_every_system_in_its_first_evaluated_round() {
        // One round counter serves all systems, so with an even system
        // count each system always meets the same start parity; at two
        // calculators the odd one used to name a pair that does not exist,
        // leaving systems 1 and 3 unbalanced for the whole run.
        let (n_sys, mode, speeds) = (4, BalanceMode::dynamic(), vec![1.0; 2]);
        let mut mgr = manager(2, n_sys);
        for frame in 0..6u64 {
            for sys in 0..n_sys {
                let Round::Decided { transfers, .. } =
                    mgr.decide_round(sys, frame, &[li(900), li(100)], &speeds, &mode)
                else {
                    panic!("frame {frame} sys {sys}: a 9:1 split never builds an idle streak");
                };
                let want = Transfer { donor: 0, receiver: 1, amount: 400 };
                assert_eq!(transfers, vec![want], "frame {frame} sys {sys}");
            }
        }
        assert_eq!(mgr.round(), 6 * n_sys as u64);
    }

    #[test]
    fn round_maps_present_subset_sorts_by_boundary_and_counts_evaluated_rounds() {
        let (mode, speeds) = (mode(1, 0), vec![1.0; 6]);
        let mut mgr = manager(6, 1);
        // Ranks 1 and 4 are silent; the spikes sit on both sides of the gap.
        let loads = vec![li(900), None, li(100), li(100), None, li(900)];
        let Round::Decided { present, transfers, decentralized } =
            mgr.decide_round(0, 0, &loads, &speeds, &mode)
        else {
            panic!("first round is evaluated");
        };
        assert!(decentralized);
        assert_eq!(present, vec![0, 2, 3, 5]);
        let boundaries: Vec<usize> = transfers.iter().map(|t| t.donor.min(t.receiver)).collect();
        assert!(boundaries.len() >= 2 && boundaries.is_sorted(), "{transfers:?}");
        assert!(transfers
            .iter()
            .all(|t| present.contains(&t.donor) && present.contains(&t.receiver)));
        assert!(transfers.iter().any(|t| (t.donor, t.receiver) == (0, 2)), "pair spans rank 1");
        assert_eq!((mgr.round(), mgr.idle_rounds()), (1, vec![0]));
        // A level round is evaluated (and counted), then the streak skips
        // without counting.
        let level = vec![li(100); 6];
        assert!(matches!(mgr.decide_round(0, 1, &level, &speeds, &mode), Round::Decided { .. }));
        assert_eq!((mgr.round(), mgr.idle_rounds()), (2, vec![1]));
        assert!(matches!(mgr.decide_round(0, 2, &loads, &speeds, &mode), Round::Skipped));
        assert_eq!((mgr.round(), mgr.idle_rounds()), (2, vec![1]));
    }
}
