//! Property-based tests over the core invariants.
//!
//! The workspace builds fully offline, so instead of `proptest` these
//! properties are driven by the repo's own deterministic [`Rng64`] streams:
//! every case set derives from a fixed seed, so a failure reproduces
//! bit-for-bit on every run — which is itself one of the determinism rules
//! psa-verify enforces (no ambient RNG in test generators).

use particle_cluster_anim::prelude::*;
use particle_cluster_anim::runtime::balance::{evaluate, validate_round, LoadInfo};

const CASES: usize = 256;

/// Every coordinate in the covered space has exactly one owner, and the
/// owner's slice contains it.
#[test]
fn domain_owner_is_consistent() {
    let mut rng = Rng64::new(0xD0_A11);
    for _ in 0..CASES {
        let lo = rng.range(-100.0, 0.0);
        let width = rng.range(1.0, 200.0);
        let n = 1 + rng.below(23);
        let space = Interval::new(lo, lo + width);
        let map = DomainMap::split_even(space, Axis::X, n);
        for _ in 0..32 {
            let v = lo + width * rng.unit() * 0.999; // strictly inside
            let owner = map.owner_of(v);
            assert!(owner < n);
            assert!(map.slice(owner).contains(v), "slice {owner} must contain {v}");
            // uniqueness: no other slice contains it
            for i in 0..n {
                if i != owner {
                    assert!(!map.slice(i).contains(v));
                }
            }
        }
    }
}

/// Moving interior cuts arbitrarily (within bounds) keeps the map valid and
/// keeps the union of slices equal to the space.
#[test]
fn domain_cut_moves_preserve_cover() {
    let mut rng = Rng64::new(0xC07);
    for _ in 0..CASES {
        let n = 2 + rng.below(10);
        let space = Interval::new(-5.0, 5.0);
        let mut map = DomainMap::split_even(space, Axis::X, n);
        for _ in 0..rng.below(24) {
            let i = rng.below(n - 1);
            // legal range for boundary i is [cuts[i], cuts[i+2]]
            let lo = map.cuts()[i];
            let hi = map.cuts()[i + 2];
            let cut = lo + (hi - lo) * rng.unit();
            map.move_cut(i, cut).expect("cut chosen in legal range");
            assert!(map.validate().is_ok());
            assert_eq!(map.space(), space);
        }
    }
}

/// The balancer's structural rules hold for arbitrary load reports:
/// neighbor-only, nobody in two pairs, donors have the excess.
#[test]
fn balancer_rules_hold() {
    let mut rng = Rng64::new(0xBA1A);
    for _ in 0..CASES {
        let n = 2 + rng.below(18);
        let counts: Vec<usize> = (0..n).map(|_| rng.below(10_000)).collect();
        let start = rng.below(2);
        let threshold = rng.range(0.01, 0.5) as f64;
        let loads: Vec<LoadInfo> =
            counts.iter().map(|&c| LoadInfo { count: c, time: c as f64 * 1e-4 }).collect();
        let powers = vec![1.0; loads.len()];
        let cfg = BalancerConfig { rel_threshold: threshold, ..BalancerConfig::fixed(8) };
        let transfers = evaluate(&loads, &powers, start, &cfg);
        let present: Vec<usize> = (0..n).collect();
        assert_eq!(validate_round(&transfers, &loads, &present, false), Ok(()));
        for t in &transfers {
            assert!(t.amount >= 8);
            assert!(loads[t.donor].count >= t.amount, "donor cannot give what it lacks");
            // donor must actually be the slower/larger side
            assert!(loads[t.donor].time >= loads[t.receiver].time);
        }
    }
}

/// SubDomainStore: insert + collect_leavers is a partition — nothing lost,
/// nothing duplicated, and what remains is inside the slice.
#[test]
fn subdomain_leaver_partition() {
    let mut rng = Rng64::new(0x5AB);
    for _ in 0..CASES {
        let count = rng.below(256);
        let buckets = 1 + rng.below(11);
        let slice = Interval::new(-5.0, 5.0);
        let mut store = SubDomainStore::new(slice, Axis::X, buckets);
        for _ in 0..count {
            let x = rng.range(-20.0, 20.0);
            store.insert(Particle::at(Vec3::new(x, 0.0, 0.0)));
        }
        let before = store.len();
        assert_eq!(before, count);
        let leavers = store.collect_leavers();
        assert_eq!(store.len() + leavers.len(), before);
        for p in store.iter() {
            assert!(slice.contains(p.position.x));
        }
        for p in &leavers {
            assert!(!slice.contains(p.position.x));
        }
    }
}

/// Donation extremity: donate_low returns exactly the k smallest
/// coordinates (as a multiset), for any bucket count.
#[test]
fn donation_takes_extremes() {
    let mut rng = Rng64::new(0xD0_4A7E);
    for _ in 0..CASES {
        let count = 1 + rng.below(127);
        let buckets = 1 + rng.below(7);
        let xs: Vec<f32> = (0..count).map(|_| rng.range(0.0, 10.0)).collect();
        let slice = Interval::new(0.0, 10.0);
        let mut store = SubDomainStore::new(slice, Axis::X, buckets);
        for &x in &xs {
            store.insert(Particle::at(Vec3::new(x, 0.0, 0.0)));
        }
        let k = (1 + rng.below(63)).min(xs.len());
        let (donated, _) = store.donate_low(k);
        assert_eq!(donated.len(), k);
        let mut got: Vec<f32> = donated.iter().map(|p| p.position.x).collect();
        got.sort_by(f32::total_cmp);
        let mut want = xs.clone();
        want.sort_by(f32::total_cmp);
        want.truncate(k);
        assert_eq!(got, want);
    }
}

/// Rng streams: split children never collide with the parent stream on
/// short prefixes (sanity of the stream-derivation scheme).
#[test]
fn rng_split_streams_diverge() {
    let mut meta = Rng64::new(0xD1F5);
    for _ in 0..CASES {
        let seed = meta.next_u64() % 10_000;
        let salt = 1 + meta.next_u64() % 9_999;
        let mut parent = Rng64::new(seed);
        let mut child = Rng64::new(seed).split(salt);
        let same = (0..16).filter(|_| parent.next_u64() == child.next_u64()).count();
        assert!(same <= 1, "streams nearly identical (seed {seed}, salt {salt})");
    }
}

/// Trait-generic suite: the [`Balancer`] round contract holds for *every*
/// shipped strategy over arbitrary loads and degraded present-subsets —
/// donors never overdraw (even summed across a multi-pair round), a round
/// conserves particles, decisions are pure functions of their inputs, and
/// transfers decided in present-index space come back naming real ranks.
#[test]
fn every_strategy_satisfies_the_round_contract() {
    use particle_cluster_anim::runtime::balance::validate_round;
    use particle_cluster_anim::runtime::balancers::all_strategies;
    let mut rng = Rng64::new(0xB_A1A2);
    for case in 0..CASES {
        let world = 2 + rng.below(40);
        // A degraded round: each real rank is present with p ≈ 0.8, with
        // at least two survivors so pairs exist.
        let mut present: Vec<usize> = (0..world).filter(|_| rng.unit() < 0.8).collect();
        while present.len() < 2 {
            present = (0..world).collect();
        }
        let n = present.len();
        let loads: Vec<LoadInfo> = (0..n)
            .map(|_| {
                let c = rng.below(5_000);
                LoadInfo { count: c, time: c as f64 * rng.range(0.5e-6, 2.0e-6) as f64 }
            })
            .collect();
        let powers: Vec<f64> = (0..n).map(|_| rng.range(0.5, 2.0) as f64).collect();
        let round = case as u64;
        let cfg = BalancerConfig::default();
        for s in all_strategies() {
            let ts = s.decide(&loads, &powers, &present, round, &cfg);
            validate_round(&ts, &loads, &present, s.multi_pair())
                .unwrap_or_else(|e| panic!("{} case {case}: {e}", s.name()));
            // Determinism: identical inputs decide identical transfers.
            assert_eq!(
                ts,
                s.decide(&loads, &powers, &present, round, &cfg),
                "{} case {case}: decision not deterministic",
                s.name()
            );
            // Conservation: applying the round moves particles, never
            // creates or destroys them.
            let before: usize = loads.iter().map(|l| l.count).sum();
            let mut counts: Vec<usize> = loads.iter().map(|l| l.count).collect();
            for t in &ts {
                let d = present.binary_search(&t.donor).expect("donor is present");
                let r = present.binary_search(&t.receiver).expect("receiver is present");
                counts[d] = counts[d].checked_sub(t.amount).expect("donor overdrawn");
                counts[r] += t.amount;
            }
            assert_eq!(
                counts.iter().sum::<usize>(),
                before,
                "{} case {case}: round does not conserve particles",
                s.name()
            );
        }
    }
}

/// Every strategy drains the point-spike harness at a post-dead-zone rank
/// count: one rank holding everything, 64 thin peers. Convergence means a
/// full cycle of empty rounds (strategies alternate round types), bounded
/// imbalance at the end, and a valid round every step of the way.
#[test]
fn every_strategy_drains_a_spike_at_scale() {
    use particle_cluster_anim::runtime::balance::validate_round;
    use particle_cluster_anim::runtime::balancers::all_strategies;
    let n = 64usize;
    let present: Vec<usize> = (0..n).collect();
    let powers = vec![1.0; n];
    let cfg = BalancerConfig::default();
    for s in all_strategies() {
        let mut counts = vec![5usize; n];
        counts[n / 2] = 50_000;
        let mut converged = false;
        let mut empty_streak = 0;
        for round in 0..6_000u64 {
            let loads: Vec<LoadInfo> =
                counts.iter().map(|&c| LoadInfo { count: c, time: c as f64 * 1e-6 }).collect();
            let ts = s.decide(&loads, &powers, &present, round, &cfg);
            validate_round(&ts, &loads, &present, s.multi_pair())
                .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            if ts.is_empty() {
                empty_streak += 1;
                if empty_streak >= 4 {
                    converged = true;
                    break;
                }
            } else {
                empty_streak = 0;
            }
            for t in ts {
                counts[t.donor] -= t.amount;
                counts[t.receiver] += t.amount;
            }
        }
        assert!(converged, "{} did not converge on the spike harness", s.name());
        let max = *counts.iter().max().unwrap() as f64;
        let mean = counts.iter().sum::<usize>() as f64 / n as f64;
        // Pair-local thresholds leave a residual hill (each neighbor pair
        // within 15% still compounds over 64 ranks), so "drained" means
        // bounded by a small multiple of the mean, not flat — the paper
        // walks settle at ~3.2×/~4.6×, diffusive and hierarchical under 2×.
        // A stuck spike would sit at ~64×.
        assert!(
            max / mean < 5.0,
            "{} left the spike standing: max/mean = {}",
            s.name(),
            max / mean
        );
    }
}

/// The rank→position binary search in `validate_round` must accept a full
/// 1,024-rank round and reject every malformed shape, at a cost that
/// stays O(t log n) — the O(t·n) scan it replaced was a real per-round
/// tax at BENCH_5 scale.
#[test]
fn mapped_validation_handles_1024_rank_rounds() {
    use particle_cluster_anim::runtime::balance::Transfer;
    let mut rng = Rng64::new(0x10_24);
    for _ in 0..64 {
        // A degraded 1,024-rank present set (~1% dead), and one transfer
        // across every surviving present-list pair — far denser than any
        // strategy emits, so acceptance here covers every real round.
        let present: Vec<usize> = (0..1024).filter(|_| rng.unit() < 0.99).collect();
        let transfers: Vec<Transfer> = present
            .windows(2)
            .map(|w| Transfer { donor: w[0], receiver: w[1], amount: 1 + rng.below(100) })
            .collect();
        // One rank per pair violates one-pair-per-process; check only the
        // shape rules here by splitting into odd/even pair sets.
        let evens: Vec<Transfer> = transfers.iter().step_by(2).copied().collect();
        let odds: Vec<Transfer> = transfers.iter().skip(1).step_by(2).copied().collect();
        // Every rank holds the largest amount drawn above: no overdraw.
        let loads = vec![LoadInfo { count: 100, time: 0.0 }; present.len()];
        let validate = |ts: &[Transfer]| validate_round(ts, &loads, &present, false);
        validate(&evens).expect("even pairs are a legal round");
        validate(&odds).expect("odd pairs are a legal round");
        // Absent endpoint: a dead rank in a transfer must be rejected.
        if let Some(dead) = (0..1024).find(|r| present.binary_search(r).is_err()) {
            let bad = vec![Transfer { donor: dead, receiver: present[0], amount: 1 }];
            assert!(validate(&bad).is_err());
        }
        // Non-neighbor endpoints must be rejected.
        let far = vec![Transfer { donor: present[0], receiver: present[5], amount: 1 }];
        assert!(validate(&far).is_err());
    }
}
