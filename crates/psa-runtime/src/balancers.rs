//! The pluggable load-balancing strategies behind [`Balancer`].
//!
//! Four strategies ship with the runtime:
//!
//! * [`NeighborPair`] — the paper's §3.2.5 centralized manager walk:
//!   alternating start pair, one pair per process, full excess moved.
//! * [`HalfExcess`] — the paper's §6 "future work" decentralized variant:
//!   every pair acts independently on half its excess.
//! * [`Diffusive`] — first-order damped diffusion (Cybenko-style, cf.
//!   Demiralp et al. 2022): every pair moves `α ×` its excess toward the
//!   power-proportional target each round, no imbalance threshold, no
//!   manager round-trip. The damping `α ≤ 1/2` makes simultaneous
//!   both-neighbor decisions stable on the 1-D chain and bounds a donor's
//!   total outflow by its holdings.
//! * [`HierarchicalSfc`] — hierarchical balancing over the 1-D
//!   space-filling-curve order (cf. Eibl & Rüde's systematic comparison):
//!   ranks form contiguous groups along the domain curve; even rounds
//!   balance *across* groups by moving particles over the shared group
//!   boundary, odd rounds balance *within* each group. Aggregated group
//!   loads keep the decision live at extreme fan-out where any single
//!   rank pair is too thin to act on.
//!
//! All strategies decide in present-index space and map the result back to
//! real ranks, so degraded rounds (dead ranks collapsed out of `present`)
//! work identically for every strategy — the [`Balancer`] contract.

#![deny(missing_docs)]

use crate::balance::{
    evaluate, evaluate_decentralized, map_to_present, pair_move, Balancer, BalancerConfig,
    LoadInfo, Transfer,
};
use crate::config::BalanceMode;

/// The paper's centralized neighbor-pair walk (§3.2.5).
#[derive(Clone, Copy, Debug, Default)]
pub struct NeighborPair;

impl Balancer for NeighborPair {
    fn name(&self) -> &'static str {
        "neighbor-pair"
    }

    fn decide(
        &self,
        loads: &[LoadInfo],
        powers: &[f64],
        present: &[usize],
        round: u64,
        cfg: &BalancerConfig,
    ) -> Vec<Transfer> {
        if loads.len() != present.len() || powers.len() != present.len() {
            return Vec::new();
        }
        map_to_present(evaluate(loads, powers, (round % 2) as usize, cfg), present)
    }
}

/// The decentralized half-excess balancer (paper §6 future work).
#[derive(Clone, Copy, Debug, Default)]
pub struct HalfExcess;

impl Balancer for HalfExcess {
    fn name(&self) -> &'static str {
        "half-excess"
    }

    fn decentralized(&self) -> bool {
        true
    }

    fn multi_pair(&self) -> bool {
        true
    }

    fn decide(
        &self,
        loads: &[LoadInfo],
        powers: &[f64],
        present: &[usize],
        _round: u64,
        cfg: &BalancerConfig,
    ) -> Vec<Transfer> {
        if loads.len() != present.len() || powers.len() != present.len() {
            return Vec::new();
        }
        map_to_present(evaluate_decentralized(loads, powers, cfg), present)
    }
}

/// First-order damped diffusion: flow proportional to the load gradient.
#[derive(Clone, Copy, Debug, Default)]
pub struct Diffusive;

/// The fraction of a pair's excess [`Diffusive`] moves per round. Stable on
/// a 1-D chain for α ≤ 1/2; 1/3 damps simultaneous both-neighbor decisions.
const DIFFUSION_ALPHA: f64 = 1.0 / 3.0;

impl Balancer for Diffusive {
    fn name(&self) -> &'static str {
        "diffusive"
    }

    fn decentralized(&self) -> bool {
        true
    }

    fn multi_pair(&self) -> bool {
        true
    }

    fn decide(
        &self,
        loads: &[LoadInfo],
        powers: &[f64],
        present: &[usize],
        _round: u64,
        cfg: &BalancerConfig,
    ) -> Vec<Transfer> {
        let n = loads.len();
        if n != present.len() || powers.len() != n || n < 2 {
            return Vec::new();
        }
        // α ≤ 1/2 bounds a both-sides donor's outflow by its holdings:
        // each side moves at most α × count, so the sum is ≤ count.
        let total: usize = loads.iter().map(|l| l.count).sum();
        let min_transfer = cfg.effective_min_transfer(total, n).max(1);
        let mut out = Vec::new();
        for a in 0..n - 1 {
            let (donor, receiver, excess) = pair_move(a, a + 1, loads, powers);
            let amount = (excess as f64 * DIFFUSION_ALPHA).floor() as usize;
            if amount >= min_transfer {
                out.push(Transfer { donor, receiver, amount });
            }
        }
        map_to_present(out, present)
    }
}

/// Hierarchical balancing over contiguous groups of the 1-D domain curve.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierarchicalSfc;

/// Ranks per [`HierarchicalSfc`] group: ⌈√n⌉, always in `[2, n]`.
fn group_size(n: usize) -> usize {
    ((n as f64).sqrt().ceil() as usize).clamp(2, n.max(2))
}

impl Balancer for HierarchicalSfc {
    fn name(&self) -> &'static str {
        "hierarchical-sfc"
    }

    fn decide(
        &self,
        loads: &[LoadInfo],
        powers: &[f64],
        present: &[usize],
        round: u64,
        cfg: &BalancerConfig,
    ) -> Vec<Transfer> {
        let n = loads.len();
        if n != present.len() || powers.len() != n || n < 2 {
            return Vec::new();
        }
        let g = group_size(n);
        let ngroups = n.div_ceil(g);
        let level_parity = ((round / 2) % 2) as usize;
        let mut out = Vec::new();
        if ngroups >= 2 && round.is_multiple_of(2) {
            // Across groups: aggregate each group's load and power, run the
            // paper walk over the groups, then realize each group transfer
            // as a move across the shared boundary edge — clamped to what
            // the boundary rank actually holds (the within-group rounds
            // refill the edge so multi-round flows complete).
            let mut gl = vec![LoadInfo::default(); ngroups];
            let mut gp = vec![0.0f64; ngroups];
            for i in 0..n {
                let k = i / g;
                gl[k].count += loads[i].count;
                gl[k].time += loads[i].time;
                gp[k] += powers[i];
            }
            for t in evaluate(&gl, &gp, level_parity, cfg) {
                let (edge_d, edge_r) = if t.donor < t.receiver {
                    (t.receiver * g - 1, t.receiver * g)
                } else {
                    (t.donor * g, t.donor * g - 1)
                };
                let amount = t.amount.min(loads[edge_d].count);
                if amount > 0 {
                    out.push(Transfer { donor: edge_d, receiver: edge_r, amount });
                }
            }
        } else {
            // Within each group: the paper walk on the group's sub-slice,
            // offset back to whole-list indices. Groups are disjoint, so
            // the one-pair-per-process rule holds globally.
            for k in 0..ngroups {
                let (lo, hi) = (k * g, ((k + 1) * g).min(n));
                for t in evaluate(&loads[lo..hi], &powers[lo..hi], level_parity, cfg) {
                    out.push(Transfer {
                        donor: t.donor + lo,
                        receiver: t.receiver + lo,
                        amount: t.amount,
                    });
                }
            }
        }
        map_to_present(out, present)
    }
}

static NEIGHBOR_PAIR: NeighborPair = NeighborPair;
static HALF_EXCESS: HalfExcess = HalfExcess;
static DIFFUSIVE: Diffusive = Diffusive;
static HIERARCHICAL_SFC: HierarchicalSfc = HierarchicalSfc;

/// The strategy a [`BalanceMode`] selects (`None` for static balancing).
pub fn strategy_for(mode: &BalanceMode) -> Option<&'static dyn Balancer> {
    match mode {
        BalanceMode::Static => None,
        BalanceMode::Dynamic(_) => Some(&NEIGHBOR_PAIR),
        BalanceMode::Decentralized(_) => Some(&HALF_EXCESS),
        BalanceMode::Diffusive(_) => Some(&DIFFUSIVE),
        BalanceMode::Hierarchical(_) => Some(&HIERARCHICAL_SFC),
    }
}

/// Every shipped strategy, for trait-generic property suites.
pub fn all_strategies() -> Vec<&'static dyn Balancer> {
    vec![&NEIGHBOR_PAIR, &HALF_EXCESS, &DIFFUSIVE, &HIERARCHICAL_SFC]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::validate_round;

    fn li(count: usize, time: f64) -> LoadInfo {
        LoadInfo { count, time }
    }

    fn spike(n: usize, at: usize, height: usize) -> Vec<LoadInfo> {
        let mut l = vec![li(10, 10e-6); n];
        l[at] = li(height, height as f64 * 1e-6);
        l
    }

    #[test]
    fn neighbor_pair_matches_legacy_evaluate() {
        let loads = [li(400, 4.0), li(100, 1.0), li(400, 4.0), li(100, 1.0)];
        let present = [0usize, 1, 2, 3];
        let cfg = BalancerConfig::fixed(10);
        for round in 0..4u64 {
            assert_eq!(
                NeighborPair.decide(&loads, &[1.0; 4], &present, round, &cfg),
                evaluate(&loads, &[1.0; 4], (round % 2) as usize, &cfg)
            );
        }
    }

    #[test]
    fn diffusive_moves_a_damped_fraction() {
        let loads = [li(400, 4.0), li(100, 1.0)];
        let cfg = BalancerConfig::fixed(10);
        let t = Diffusive.decide(&loads, &[1.0, 1.0], &[0, 1], 0, &cfg);
        // excess toward the 250/250 target is 150; α = 1/3 → 50.
        assert_eq!(t, vec![Transfer { donor: 0, receiver: 1, amount: 50 }]);
    }

    #[test]
    fn diffusive_never_overdraws_a_both_sides_donor() {
        let loads = [li(0, 0.0), li(99, 1.0), li(0, 0.0)];
        let present = [0usize, 1, 2];
        let t = Diffusive.decide(&loads, &[1.0; 3], &present, 0, &BalancerConfig::fixed(1));
        assert_eq!(t.len(), 2);
        validate_round(&t, &loads, &present, true).unwrap();
    }

    #[test]
    fn hierarchical_moves_load_across_group_boundaries() {
        // 16 ranks, groups of ⌈√16⌉ = 4. All the load sits in group 0; the
        // even (inter-group) round must move particles across the 3|4
        // boundary.
        let mut loads = vec![li(0, 0.0); 16];
        for l in loads.iter_mut().take(4) {
            *l = li(1000, 1e-3);
        }
        let present: Vec<usize> = (0..16).collect();
        let cfg = BalancerConfig::fixed(10);
        let t = HierarchicalSfc.decide(&loads, &[1.0; 16], &present, 0, &cfg);
        assert!(!t.is_empty());
        assert!(t.iter().all(|t| t.donor == 3 && t.receiver == 4), "{t:?}");
        validate_round(&t, &loads, &present, false).unwrap();
        // The odd (intra-group) round spreads within groups.
        let t2 = HierarchicalSfc.decide(&loads, &[1.0; 16], &present, 1, &cfg);
        assert!(t2.iter().all(|t| t.donor / 4 == t.receiver / 4), "{t2:?}");
    }

    #[test]
    fn hierarchical_stays_live_on_thin_slices() {
        // The BENCH_5 dead zone: 128 ranks × ~2 particles. Group
        // aggregation keeps the signal above even the paper's fixed 32
        // when the imbalance is group-sized.
        let mut loads = vec![li(1, 1e-6); 128];
        for l in loads.iter_mut().take(12) {
            *l = li(40, 40e-6);
        }
        let present: Vec<usize> = (0..128).collect();
        let t =
            HierarchicalSfc.decide(&loads, &[1.0; 128], &present, 0, &BalancerConfig::default());
        assert!(!t.is_empty(), "group-aggregated signal must stay live");
        validate_round(&t, &loads, &present, false).unwrap();
    }

    #[test]
    fn every_strategy_acts_on_two_ranks_in_every_round() {
        // One pair exists; no round value may select a pair that does not.
        let loads = [li(900, 900e-6), li(100, 100e-6)];
        for s in all_strategies() {
            for round in 0..8u64 {
                let t = s.decide(&loads, &[1.0; 2], &[0, 1], round, &BalancerConfig::default());
                assert_eq!(t.len(), 1, "{} round {round}: {t:?}", s.name());
                assert_eq!((t[0].donor, t[0].receiver), (0, 1), "{} round {round}", s.name());
            }
        }
    }

    #[test]
    fn hierarchical_two_rank_levels_act_on_both_parities() {
        let decide = |loads: &[LoadInfo], round: u64| {
            let present: Vec<usize> = (0..loads.len()).collect();
            let cfg = BalancerConfig::fixed(10);
            let t = HierarchicalSfc.decide(loads, &vec![1.0; loads.len()], &present, round, &cfg);
            validate_round(&t, loads, &present, false).unwrap();
            t
        };
        // Two groups of ⌈√4⌉ = 2: the across-group rounds 0 and 2 (level
        // parity 0 and 1) both move load over the 1|2 boundary.
        let heavy_group = [li(900, 9.0), li(900, 9.0), li(100, 1.0), li(100, 1.0)];
        for round in [0, 2] {
            let t = decide(&heavy_group, round);
            assert_eq!(t.len(), 1, "round {round}: {t:?}");
            assert_eq!((t[0].donor, t[0].receiver), (1, 2), "round {round}");
        }
        // A trailing two-rank group (5 ranks in groups of ⌈√5⌉ = 3): the
        // within-group rounds 1 and 3 both level ranks 3 and 4.
        let heavy_tail = [li(100, 1.0), li(100, 1.0), li(100, 1.0), li(900, 9.0), li(100, 1.0)];
        for round in [1, 3] {
            let t = decide(&heavy_tail, round);
            assert_eq!(t, vec![Transfer { donor: 3, receiver: 4, amount: 400 }], "round {round}");
        }
    }

    #[test]
    fn strategies_map_present_subsets_to_real_ranks() {
        // Rank 1 dead: present = [0, 2, 3]; every strategy's transfers must
        // name real ranks adjacent in present-list space.
        let loads = [li(400, 4.0), li(10, 1e-4), li(10, 1e-4)];
        let present = [0usize, 2, 3];
        for s in all_strategies() {
            let t = s.decide(&loads, &[1.0; 3], &present, 0, &BalancerConfig::fixed(5));
            validate_round(&t, &loads, &present, s.multi_pair())
                .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            for t in &t {
                assert!(t.donor != 1 && t.receiver != 1, "{}: dead rank used: {t:?}", s.name());
            }
        }
    }

    #[test]
    fn every_strategy_drains_a_spike() {
        for s in all_strategies() {
            let n = 32;
            let mut counts: Vec<usize> = spike(n, 7, 10_000).iter().map(|l| l.count).collect();
            let present: Vec<usize> = (0..n).collect();
            let powers = vec![1.0; n];
            let cfg = BalancerConfig::default();
            // Strategies alternate round types (pair parity; the
            // hierarchical inter/intra levels), so convergence means a
            // full cycle of empty rounds, not a single one.
            let mut last_rounds = 0;
            let mut empty_streak = 0;
            for round in 0..4_000u64 {
                let loads: Vec<LoadInfo> = counts.iter().map(|&c| li(c, c as f64 * 1e-6)).collect();
                let ts = s.decide(&loads, &powers, &present, round, &cfg);
                validate_round(&ts, &loads, &present, s.multi_pair())
                    .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
                if ts.is_empty() {
                    empty_streak += 1;
                    if empty_streak >= 4 {
                        last_rounds = round;
                        break;
                    }
                } else {
                    empty_streak = 0;
                }
                for t in ts {
                    counts[t.donor] -= t.amount;
                    counts[t.receiver] += t.amount;
                }
                last_rounds = round + 1;
            }
            assert!(last_rounds < 4_000, "{} did not converge", s.name());
            let max = *counts.iter().max().unwrap() as f64;
            let mean = counts.iter().sum::<usize>() as f64 / n as f64;
            assert!(max / mean < 3.0, "{} left a spike: {counts:?}", s.name());
        }
    }

    #[test]
    fn mode_selects_strategy() {
        assert!(strategy_for(&BalanceMode::Static).is_none());
        assert_eq!(strategy_for(&BalanceMode::dynamic()).unwrap().name(), "neighbor-pair");
        assert_eq!(strategy_for(&BalanceMode::decentralized()).unwrap().name(), "half-excess");
        assert_eq!(strategy_for(&BalanceMode::diffusive()).unwrap().name(), "diffusive");
        assert_eq!(strategy_for(&BalanceMode::hierarchical()).unwrap().name(), "hierarchical-sfc");
        // The strategy is the one place "decentralized" is decided.
        let decentralized = |m: BalanceMode| strategy_for(&m).is_some_and(|s| s.decentralized());
        assert!(decentralized(BalanceMode::decentralized()));
        assert!(decentralized(BalanceMode::diffusive()));
        assert!(!decentralized(BalanceMode::dynamic()));
        assert!(!decentralized(BalanceMode::hierarchical()));
    }
}
