//! Load-balancing decision kernel (paper §3.2.5 and beyond).
//!
//! After each frame the manager (or, for decentralized strategies, each
//! neighbor pair) receives `(count, time)` reports and decides particle
//! transfers. The paper's centralized neighbor-pair rules, verbatim:
//!
//! * balancing only happens between domain neighbors;
//! * each process either sends or receives in one round, never both
//!   ("to avoid alignment of processes");
//! * a process participates in at most one pair per round;
//! * when pair `(x, x+1)` is rebalanced, pair `(x+1, x+2)` is skipped and
//!   evaluation resumes at `(x+2, x+3)`;
//! * the starting pair alternates every round so the same pair is not
//!   always favored;
//! * the new loads are proportional to the processing *power* of the two
//!   processes (estimated from sequential calibration, §4);
//! * transfers below a minimum size are not worth their cost and skipped.
//!
//! The minimum-transfer rule is where the paper's scheme dies at scale:
//! BENCH_5 showed that past ~32 ranks every candidate move is smaller than
//! the fixed constant, so the balancer issues zero orders while the balance
//! phase keeps charging ~2× wall per frame. [`BalancerConfig`] therefore
//! makes the minimum *adaptive* — a fraction of the mean particles per
//! participating rank — with the paper's fixed constant preserved as the
//! [`BalancerConfig::paper`] override.
//!
//! Strategies are pluggable behind the [`Balancer`] trait; the concrete
//! implementations live in [`crate::balancers`]. Everything here is pure —
//! the executors feed reports in and carry the decisions out — which is
//! what makes the rules property-testable.

/// A calculator's per-frame load report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoadInfo {
    /// Particles held after the exchange.
    pub count: usize,
    /// Processing time for the frame, rescaled to the post-exchange count
    /// (paper §3.2.4).
    pub time: f64,
}

/// Balancer tuning, shared by every strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BalancerConfig {
    /// Rebalance a pair when `|t_a - t_b| > rel_threshold × max(t_a, t_b)`.
    pub rel_threshold: f64,
    /// Fixed minimum particles per transfer (paper: "depending on the
    /// amount of particles to be moved … it may not be interesting to
    /// perform the transmission"; the reference implementation used 32).
    /// `None` — the default — derives the minimum adaptively from the mean
    /// particles per participating rank, which is what keeps balancing
    /// alive past 32 ranks where slices hold a handful of particles each.
    pub min_transfer: Option<usize>,
    /// Short-circuit the balance phase after this many consecutive
    /// zero-order rounds for a system (`0` disables the short-circuit —
    /// the paper-faithful behavior of evaluating every frame).
    pub idle_after: u32,
    /// While short-circuited, re-probe the balancer every this many frames
    /// so a late-developing imbalance is still caught.
    pub reprobe_period: u64,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig { rel_threshold: 0.15, min_transfer: None, idle_after: 3, reprobe_period: 8 }
    }
}

impl BalancerConfig {
    /// The paper-faithful configuration: fixed minimum transfer of 32
    /// particles, no balance-phase short-circuit. This reproduces the
    /// BENCH_1..5 behavior bit-for-bit, dead-zone included.
    pub fn paper() -> Self {
        BalancerConfig { min_transfer: Some(32), idle_after: 0, ..Self::default() }
    }

    /// A fixed minimum-transfer override (test/tuning convenience).
    pub fn fixed(min_transfer: usize) -> Self {
        BalancerConfig { min_transfer: Some(min_transfer), ..Self::default() }
    }

    /// Adaptive minimum: this fraction of the mean particles per
    /// participating rank.
    const ADAPTIVE_MIN_FRAC: f64 = 0.01;
    /// The adaptive minimum never falls below this floor.
    const ADAPTIVE_MIN_FLOOR: usize = 1;

    /// The minimum transfer size in effect for a round with `total`
    /// particles spread over `ranks` participating ranks.
    pub fn effective_min_transfer(&self, total: usize, ranks: usize) -> usize {
        if let Some(fixed) = self.min_transfer {
            return fixed;
        }
        let mean = total as f64 / ranks.max(1) as f64;
        let adaptive = (mean * Self::ADAPTIVE_MIN_FRAC).round() as usize;
        adaptive.max(Self::ADAPTIVE_MIN_FLOOR)
    }
}

/// One balancing order, addressed to a calculator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Donate `amount` particles to neighbor `to` (a domain neighbor:
    /// rank ± 1).
    Send { to: usize, amount: usize },
    /// Expect a donation from neighbor `from`.
    Receive { from: usize },
}

/// A decided transfer between a neighbor pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    pub donor: usize,
    pub receiver: usize,
    pub amount: usize,
}

/// One pluggable load-balancing strategy: decide one round of transfers.
///
/// `loads[i]` / `powers[i]` describe real rank `present[i]` (`present`
/// ascends; after a crash the dead rank's slice is collapsed, so
/// consecutive present ranks really share a domain boundary). `round` is
/// the 0-based count of *evaluated* balance rounds, driving the paper's
/// start-pair alternation and the hierarchical level alternation.
///
/// Implementations must return transfers
///
/// * in **real** rank space (mapped through `present`),
/// * only between present-list neighbors,
/// * with no donor ever ordered to move more than it holds,
///
/// and must be pure functions of their arguments — the same inputs decide
/// the same transfers on every executor, which is what keeps same-seed
/// fingerprints byte-identical. [`validate_round`] checks the structural
/// contract (debug assertions + the trait-generic property suite).
///
/// ```
/// use psa_runtime::{Balancer, BalancerConfig, LoadInfo};
///
/// // The paper's §3.2.5 walk on a 4-rank chain with rank 0 overloaded:
/// let strategy = psa_runtime::strategy_for(&psa_runtime::BalanceMode::dynamic())
///     .expect("dynamic mode selects the neighbor-pair strategy");
/// let loads = [
///     LoadInfo { count: 400, time: 4.0e-3 },
///     LoadInfo { count: 100, time: 1.0e-3 },
///     LoadInfo { count: 100, time: 1.0e-3 },
///     LoadInfo { count: 100, time: 1.0e-3 },
/// ];
/// let present = [0, 1, 2, 3]; // nobody crashed
/// let transfers =
///     strategy.decide(&loads, &[1.0; 4], &present, 0, &BalancerConfig::fixed(10));
/// // Round 0 starts at pair (0, 1): the overloaded rank donates downhill.
/// assert_eq!(transfers.len(), 1);
/// assert_eq!((transfers[0].donor, transfers[0].receiver), (0, 1));
/// assert!(transfers[0].amount <= loads[0].count);
/// ```
pub trait Balancer {
    /// Stable strategy label (bench columns, trace annotations).
    fn name(&self) -> &'static str;

    /// `true` when decisions need only pair-local load information — no
    /// manager round-trip. The engine executes such strategies with
    /// donor-broadcast cuts instead of manager-mediated orders.
    fn decentralized(&self) -> bool {
        false
    }

    /// `true` when one rank may appear in several transfers of one round
    /// (relaxing the paper's one-pair-per-process rule).
    fn multi_pair(&self) -> bool {
        false
    }

    /// Decide one balancing round.
    fn decide(
        &self,
        loads: &[LoadInfo],
        powers: &[f64],
        present: &[usize],
        round: u64,
        cfg: &BalancerConfig,
    ) -> Vec<Transfer>;
}

/// Is a neighbor pair imbalanced enough to act on?
///
/// Times are the primary signal. When *both* times are zero — first frame
/// after a restart, a degraded-mode report, or a count-proportional metric
/// that has not warmed up — the pair used to be skipped outright, leaving a
/// real particle imbalance unaddressed until a nonzero time arrived. Fall
/// back to the particle counts as the load signal in that case; two empty
/// ranks still compare equal, so an all-zero cluster stays stable.
pub(crate) fn pair_imbalanced(a: LoadInfo, b: LoadInfo, cfg: &BalancerConfig) -> bool {
    let scale = a.time.max(b.time);
    if scale > 0.0 {
        return (a.time - b.time).abs() > cfg.rel_threshold * scale;
    }
    let (ca, cb) = (a.count as f64, b.count as f64);
    let cscale = ca.max(cb);
    cscale > 0.0 && (ca - cb).abs() > cfg.rel_threshold * cscale
}

/// The power-proportional target for the first rank of a pair, and the
/// resulting (donor, receiver, excess) move toward it.
pub(crate) fn pair_move(
    a: usize,
    b: usize,
    loads: &[LoadInfo],
    powers: &[f64],
) -> (usize, usize, usize) {
    let total = loads[a].count + loads[b].count;
    let (pa, pb) = (powers[a].max(1e-9), powers[b].max(1e-9));
    let target_a = ((total as f64) * pa / (pa + pb)).round() as usize;
    let target_a = target_a.min(total);
    if loads[a].count > target_a {
        (a, b, loads[a].count - target_a)
    } else {
        (b, a, target_a - loads[a].count)
    }
}

/// Evaluate one centralized neighbor-pair round (paper §3.2.5).
///
/// `loads[i]` is calculator `i`'s report; `powers[i]` its processing power
/// (relative speed — the paper calibrates this from sequential runs);
/// `start` is the index of the first pair to evaluate. The manager
/// alternates 0/1 between rounds, and the index is taken modulo the `n − 1`
/// pairs that exist: unchanged for `n ≥ 3`, and at `n = 2` — two
/// calculators, a two-rank hierarchical group, two groups — every round
/// evaluates the one pair there is. Without the modulo a `start = 1` round
/// walks off the end and decides nothing, and since the round counter is
/// shared by all systems, an even system count hands the same systems
/// those dead rounds every frame (measured: EXPERIMENTS.md, PR 21).
///
/// A malformed round (`loads`/`powers` length mismatch — e.g. a corrupted
/// or fault-truncated report set) yields an empty decision set rather than
/// panicking the manager; balancing resumes on the next well-formed round.
pub fn evaluate(
    loads: &[LoadInfo],
    powers: &[f64],
    start: usize,
    cfg: &BalancerConfig,
) -> Vec<Transfer> {
    let n = loads.len();
    let mut out = Vec::new();
    if n != powers.len() || n < 2 {
        return out;
    }
    let total: usize = loads.iter().map(|l| l.count).sum();
    let min_transfer = cfg.effective_min_transfer(total, n);
    // Paper: alternate between the 1st and 2nd pair — of those that exist.
    let mut i = start.min(1) % (n - 1);
    while i + 1 < n {
        let (a, b) = (i, i + 1);
        if pair_imbalanced(loads[a], loads[b], cfg) {
            let (donor, receiver, amount) = pair_move(a, b, loads, powers);
            if amount >= min_transfer {
                out.push(Transfer { donor, receiver, amount });
                // Pair (i+1, i+2) is not evaluated this round.
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Evaluate one round of the *decentralized* half-excess balancer (paper
/// future work, §6): every neighbor pair decides independently from the two
/// reports it can see locally — no manager, no alternation, no
/// one-pair-per-process rule. To damp the oscillation that simultaneous
/// decisions invite, each pair moves only **half** the excess toward the
/// power-proportional target. The returned set may involve one calculator
/// in two transfers (sending left while receiving from the right), which is
/// exactly the "alignment" the centralized rules forbid.
pub fn evaluate_decentralized(
    loads: &[LoadInfo],
    powers: &[f64],
    cfg: &BalancerConfig,
) -> Vec<Transfer> {
    let n = loads.len();
    let mut out = Vec::new();
    if n != powers.len() {
        return out;
    }
    let total: usize = loads.iter().map(|l| l.count).sum();
    let min_transfer = cfg.effective_min_transfer(total, n);
    for a in 0..n.saturating_sub(1) {
        let b = a + 1;
        if !pair_imbalanced(loads[a], loads[b], cfg) {
            continue;
        }
        let (donor, receiver, excess) = pair_move(a, b, loads, powers);
        let amount = excess / 2;
        if amount >= min_transfer.max(1) {
            out.push(Transfer { donor, receiver, amount });
        }
    }
    out
}

/// Map transfers decided in present-index space back to real rank numbers.
pub fn map_to_present(transfers: Vec<Transfer>, present: &[usize]) -> Vec<Transfer> {
    transfers
        .into_iter()
        .map(|t| Transfer {
            donor: present[t.donor],
            receiver: present[t.receiver],
            amount: t.amount,
        })
        .collect()
}

/// Structural validation for one decided round of **any** strategy: every
/// endpoint present, every transfer between present-list neighbors, and no
/// donor ordered to move more than it holds (summed across a multi-pair
/// round). Strategies that keep the paper's one-pair-per-process rule
/// (`multi_pair == false`) are additionally held to it.
pub fn validate_round(
    transfers: &[Transfer],
    loads: &[LoadInfo],
    present: &[usize],
    multi_pair: bool,
) -> Result<(), String> {
    if !present.windows(2).all(|w| w[0] < w[1]) {
        return Err("present ranks must ascend".into());
    }
    if loads.len() != present.len() {
        return Err(format!("{} loads for {} present ranks", loads.len(), present.len()));
    }
    let mut outgoing = vec![0usize; present.len()];
    let mut involved = vec![0u8; present.len()];
    for t in transfers {
        let (Ok(d), Ok(r)) = (present.binary_search(&t.donor), present.binary_search(&t.receiver))
        else {
            return Err(format!("transfer {t:?} involves a rank not present"));
        };
        if d.abs_diff(r) != 1 {
            return Err(format!("transfer {t:?} is not between present-list neighbors"));
        }
        outgoing[d] += t.amount;
        involved[d] += 1;
        involved[r] += 1;
    }
    for (i, &out) in outgoing.iter().enumerate() {
        if out > loads[i].count {
            return Err(format!(
                "rank {} ordered to donate {} of {} held",
                present[i], out, loads[i].count
            ));
        }
    }
    if !multi_pair {
        if let Some((i, _)) = involved.iter().enumerate().find(|(_, &c)| c > 1) {
            return Err(format!("rank {} participates in more than one pair", present[i]));
        }
    }
    Ok(())
}

/// Should this round's balance phase be short-circuited to a plain barrier?
///
/// After `idle_after` consecutive zero-order rounds the phase stops paying
/// the full evaluation/order/broadcast round-trip — the cost that inverts
/// DLB against SLB in the BENCH_5 dead zone — and degrades to the
/// synchronization step static balancing needs, re-probing every
/// `reprobe_period` frames so a workload that drifts back out of balance is
/// picked up again. `idle_after == 0` disables the hysteresis (the paper's
/// behavior); `reprobe_period == 0` means never re-probe.
///
/// The decision depends only on the decided-transfer history and the frame
/// number, both pure functions of the simulation state, so every executor
/// skips the same rounds and same-seed fingerprints stay byte-identical.
pub fn should_skip_round(idle_rounds: u32, frame: u64, cfg: &BalancerConfig) -> bool {
    cfg.idle_after > 0
        && idle_rounds >= cfg.idle_after
        && (cfg.reprobe_period == 0 || !frame.is_multiple_of(cfg.reprobe_period))
}

/// Expand transfers into every rank's orders in one pass: rank `r`'s list
/// holds, in transfer order, a `Send` for each transfer it donates in and a
/// `Receive` for each it receives in. Ranks at or past `ranks` get none.
pub fn orders_by_rank(transfers: &[Transfer], ranks: usize) -> Vec<Vec<Order>> {
    let mut out = vec![Vec::new(); ranks];
    for t in transfers {
        if let Some(orders) = out.get_mut(t.donor) {
            orders.push(Order::Send { to: t.receiver, amount: t.amount });
        }
        if t.receiver != t.donor {
            if let Some(orders) = out.get_mut(t.receiver) {
                orders.push(Order::Receive { from: t.donor });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancers::NeighborPair;

    fn li(count: usize, time: f64) -> LoadInfo {
        LoadInfo { count, time }
    }

    fn cfg() -> BalancerConfig {
        BalancerConfig::fixed(10)
    }

    #[test]
    fn balanced_pair_is_left_alone() {
        let loads = [li(100, 1.0), li(100, 1.0)];
        let t = evaluate(&loads, &[1.0, 1.0], 0, &cfg());
        assert!(t.is_empty());
    }

    #[test]
    fn imbalanced_pair_transfers_half_the_excess() {
        let loads = [li(200, 2.0), li(100, 1.0)];
        let t = evaluate(&loads, &[1.0, 1.0], 0, &cfg());
        assert_eq!(t, vec![Transfer { donor: 0, receiver: 1, amount: 50 }]);
    }

    #[test]
    fn power_weighted_targets() {
        // Equal times are fine; force imbalance by time, then check the
        // target respects a 2:1 power ratio.
        let loads = [li(300, 3.0), li(0, 0.0)];
        let t = evaluate(&loads, &[2.0, 1.0], 0, &cfg());
        // target for rank 0 = 300 × 2/3 = 200 → donate 100 to rank 1.
        assert_eq!(t, vec![Transfer { donor: 0, receiver: 1, amount: 100 }]);
    }

    #[test]
    fn slow_process_donates_to_fast() {
        let loads = [li(100, 4.0), li(100, 1.0)];
        let t = evaluate(&loads, &[0.5, 2.0], 0, &cfg());
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].donor, 0);
        assert_eq!(t[0].receiver, 1);
        // target_0 = 200 × 0.5/2.5 = 40 → donate 60
        assert_eq!(t[0].amount, 60);
    }

    #[test]
    fn below_threshold_no_action() {
        let loads = [li(105, 1.05), li(100, 1.0)];
        assert!(evaluate(&loads, &[1.0, 1.0], 0, &cfg()).is_empty());
    }

    #[test]
    fn min_transfer_suppresses_tiny_moves() {
        let loads = [li(16, 1.3), li(8, 0.8)];
        let c = BalancerConfig::fixed(10);
        assert!(evaluate(&loads, &[1.0, 1.0], 0, &c).is_empty());
        let c2 = BalancerConfig::fixed(2);
        assert_eq!(evaluate(&loads, &[1.0, 1.0], 0, &c2).len(), 1);
    }

    #[test]
    fn adaptive_min_transfer_scales_with_mean_load() {
        let c = BalancerConfig::default();
        assert_eq!(c.min_transfer, None);
        // Paper-scale slices: 1% of a 5,000-particle mean ≈ the old 32.
        assert_eq!(c.effective_min_transfer(40_000, 8), 50);
        // Thin slices at 1,024 ranks: the floor keeps balancing alive.
        assert_eq!(c.effective_min_transfer(200, 128), 1);
        assert_eq!(c.effective_min_transfer(0, 0), 1);
        // The paper override is scale-blind (the BENCH_5 dead zone).
        assert_eq!(BalancerConfig::paper().effective_min_transfer(200, 128), 32);
    }

    #[test]
    fn adaptive_min_revives_thin_slice_balancing() {
        // The BENCH_5 dead zone in miniature: 128 ranks averaging ~1.3
        // particles each. The spike's pairwise excess (~19) sits under the
        // paper's fixed 32, so it suppresses every order; the adaptive
        // default still drains the spike.
        let n = 128;
        let mut loads = vec![li(1, 1e-6); n];
        loads[40] = li(40, 40e-6);
        let powers = vec![1.0; n];
        assert!(evaluate(&loads, &powers, 0, &BalancerConfig::paper()).is_empty());
        let t = evaluate(&loads, &powers, 0, &BalancerConfig::default());
        assert!(!t.is_empty(), "adaptive minimum must keep thin-slice balancing alive");
        assert!(t.iter().any(|t| t.donor == 40));
    }

    #[test]
    fn rebalanced_pair_consumes_next() {
        // 0-1 imbalanced, 1-2 imbalanced, 2-3 imbalanced. Starting at 0:
        // (0,1) rebalances, (1,2) skipped, (2,3) rebalances.
        let loads = [li(400, 4.0), li(100, 1.0), li(400, 4.0), li(100, 1.0)];
        let t = evaluate(&loads, &[1.0; 4], 0, &cfg());
        assert_eq!(t.len(), 2);
        assert_eq!((t[0].donor, t[0].receiver), (0, 1));
        assert_eq!((t[1].donor, t[1].receiver), (2, 3));
        validate_round(&t, &loads, &[0, 1, 2, 3], false).unwrap();
    }

    #[test]
    fn alternating_start_shifts_pairs() {
        let loads = [li(400, 4.0), li(100, 1.0), li(400, 4.0), li(100, 1.0)];
        let t = evaluate(&loads, &[1.0; 4], 1, &cfg());
        // starting at pair (1,2): 1 has 100 (t=1), 2 has 400 (t=4) → 2→1
        assert_eq!((t[0].donor, t[0].receiver), (2, 1));
        validate_round(&t, &loads, &[0, 1, 2, 3], false).unwrap();
    }

    #[test]
    fn the_only_pair_is_evaluated_from_either_start() {
        // Two ranks have one pair; a start of 1 used to walk off the end
        // and decide nothing.
        let loads = [li(900, 9.0), li(100, 1.0)];
        let from0 = evaluate(&loads, &[1.0, 1.0], 0, &cfg());
        assert_eq!(from0, vec![Transfer { donor: 0, receiver: 1, amount: 400 }]);
        assert_eq!(evaluate(&loads, &[1.0, 1.0], 1, &cfg()), from0);
    }

    #[test]
    fn the_modulo_changes_nothing_from_three_ranks_up() {
        // The walk as it was before the start index was taken modulo the
        // pair count, kept as the oracle.
        let old = |loads: &[LoadInfo], powers: &[f64], start: usize, cfg: &BalancerConfig| {
            let n = loads.len();
            let total: usize = loads.iter().map(|l| l.count).sum();
            let min_transfer = cfg.effective_min_transfer(total, n);
            let (mut out, mut i) = (Vec::new(), start.min(1));
            while i + 1 < n {
                if pair_imbalanced(loads[i], loads[i + 1], cfg) {
                    let (donor, receiver, amount) = pair_move(i, i + 1, loads, powers);
                    if amount >= min_transfer {
                        out.push(Transfer { donor, receiver, amount });
                        i += 1;
                    }
                }
                i += 1;
            }
            out
        };
        let mut rng = psa_math::Rng64::new(0x21);
        let mut acted = 0;
        for _ in 0..400 {
            let n = 3 + rng.below(10);
            let loads: Vec<LoadInfo> = (0..n)
                .map(|_| {
                    let count = rng.below(2_000);
                    li(count, count as f64 * 1e-3)
                })
                .collect();
            let powers: Vec<f64> = (0..n).map(|_| 0.5 + rng.unit() as f64).collect();
            for start in [0, 1, 7] {
                let t = evaluate(&loads, &powers, start, &BalancerConfig::default());
                assert_eq!(t, old(&loads, &powers, start, &BalancerConfig::default()));
                acted += t.len();
            }
        }
        assert!(acted > 1_000, "the random loads must exercise the walk: {acted} transfers");
    }

    #[test]
    fn no_process_in_two_pairs() {
        // Adversarial staircase loads.
        let loads = [li(800, 8.0), li(400, 4.0), li(200, 2.0), li(100, 1.0), li(50, 0.5)];
        for start in [0, 1] {
            let t = evaluate(&loads, &[1.0; 5], start, &cfg());
            validate_round(&t, &loads, &[0, 1, 2, 3, 4], false).unwrap();
        }
    }

    #[test]
    fn single_calculator_never_balances() {
        assert!(evaluate(&[li(100, 1.0)], &[1.0], 0, &cfg()).is_empty());
        assert!(evaluate(&[], &[], 0, &cfg()).is_empty());
    }

    #[test]
    fn zero_time_pair_is_stable() {
        let loads = [li(0, 0.0), li(0, 0.0)];
        assert!(evaluate(&loads, &[1.0, 1.0], 0, &cfg()).is_empty());
    }

    #[test]
    fn zero_time_imbalance_falls_back_to_counts() {
        // Both times zero but the counts are lopsided (first round after a
        // restart): the old scale guard skipped the pair entirely; the count
        // fallback must order the power-proportional move.
        let loads = [li(300, 0.0), li(100, 0.0)];
        let t = evaluate(&loads, &[1.0, 1.0], 0, &cfg());
        assert_eq!(t, vec![Transfer { donor: 0, receiver: 1, amount: 100 }]);
        // Same signal drives the decentralized variant (half-excess).
        let dec = evaluate_decentralized(&loads, &[1.0, 1.0], &cfg());
        assert_eq!(dec, vec![Transfer { donor: 0, receiver: 1, amount: 50 }]);
        // Equal zero-time counts stay below threshold — no oscillation.
        let even = [li(200, 0.0), li(200, 0.0)];
        assert!(evaluate(&even, &[1.0, 1.0], 0, &cfg()).is_empty());
    }

    #[test]
    fn mismatched_report_lengths_yield_an_empty_round() {
        // A fault-truncated report set must not panic the manager: every
        // entry point returns an empty decision set and waits for the next
        // well-formed round.
        let loads = [li(400, 4.0), li(100, 1.0), li(100, 1.0)];
        assert!(evaluate(&loads, &[1.0, 1.0], 0, &cfg()).is_empty());
        assert!(evaluate_decentralized(&loads, &[1.0], &cfg()).is_empty());
        assert!(NeighborPair.decide(&loads, &[1.0, 1.0], &[0, 2], 0, &cfg()).is_empty());
        assert!(NeighborPair.decide(&loads[..2], &[1.0; 3], &[0, 1, 2], 0, &cfg()).is_empty());
    }

    #[test]
    fn orders_expand_per_rank() {
        let t = vec![Transfer { donor: 0, receiver: 1, amount: 50 }];
        let by_rank = orders_by_rank(&t, 3);
        assert_eq!(by_rank[0], vec![Order::Send { to: 1, amount: 50 }]);
        assert_eq!(by_rank[1], vec![Order::Receive { from: 0 }]);
        assert!(by_rank[2].is_empty());
    }

    /// The per-rank walk `orders_by_rank` replaced: every transfer, once
    /// per rank.
    fn walk_orders(transfers: &[Transfer], rank: usize) -> Vec<Order> {
        let mut out = Vec::new();
        for t in transfers {
            if t.donor == rank {
                out.push(Order::Send { to: t.receiver, amount: t.amount });
            } else if t.receiver == rank {
                out.push(Order::Receive { from: t.donor });
            }
        }
        out
    }

    #[test]
    fn one_pass_orders_equal_the_per_rank_walk() {
        let mut rng = psa_math::Rng64::new(0x0DE5);
        // A rank that donates on both sides, and one that donates and
        // receives in the same multi-pair round.
        let both_sides = vec![
            Transfer { donor: 2, receiver: 1, amount: 7 },
            Transfer { donor: 2, receiver: 3, amount: 9 },
            Transfer { donor: 4, receiver: 3, amount: 1 },
            Transfer { donor: 5, receiver: 4, amount: 2 },
        ];
        let mut cases = vec![(both_sides, 6), (Vec::new(), 4)];
        for _ in 0..200 {
            let ranks = 1 + (rng.next_u64() % 12) as usize;
            let transfers = (0..rng.next_u64() % 16)
                .map(|_| {
                    let donor = (rng.next_u64() % ranks as u64) as usize;
                    // Neighbours mostly, but any rank the walk would accept.
                    let receiver = match rng.next_u64() % 4 {
                        0 => donor.saturating_sub(1),
                        1 | 2 => (donor + 1).min(ranks - 1),
                        _ => (rng.next_u64() % ranks as u64) as usize,
                    };
                    Transfer { donor, receiver, amount: (rng.next_u64() % 100) as usize }
                })
                .collect();
            cases.push((transfers, ranks));
        }
        for (transfers, ranks) in cases {
            let by_rank = orders_by_rank(&transfers, ranks);
            assert_eq!(by_rank.len(), ranks);
            for (rank, orders) in by_rank.iter().enumerate() {
                assert_eq!(orders, &walk_orders(&transfers, rank), "{transfers:?} rank {rank}");
            }
        }
    }

    #[test]
    fn validate_rejects_non_neighbors() {
        let bad = vec![Transfer { donor: 0, receiver: 2, amount: 5 }];
        assert!(validate_round(&bad, &[li(10, 1.0); 3], &[0, 1, 2], false).is_err());
    }

    #[test]
    fn validate_rejects_double_participation() {
        let bad = vec![
            Transfer { donor: 0, receiver: 1, amount: 5 },
            Transfer { donor: 1, receiver: 2, amount: 5 },
        ];
        assert!(validate_round(&bad, &[li(10, 1.0); 3], &[0, 1, 2], false).is_err());
    }

    #[test]
    fn validate_round_checks_overdraw_and_pairing() {
        let loads = [li(10, 1.0), li(0, 0.0), li(0, 0.0)];
        let present = [0usize, 1, 2];
        // A donor split across both sides is fine for multi-pair
        // strategies as long as the sum stays within its holdings…
        let split = vec![
            Transfer { donor: 1, receiver: 0, amount: 0 },
            Transfer { donor: 1, receiver: 2, amount: 0 },
        ];
        validate_round(&split, &loads, &present, true).unwrap();
        assert!(validate_round(&split, &loads, &present, false).is_err());
        // …but overdrawing is never fine.
        let over = vec![Transfer { donor: 0, receiver: 1, amount: 11 }];
        assert!(validate_round(&over, &loads, &present, true).is_err());
        let absent = vec![Transfer { donor: 3, receiver: 1, amount: 1 }];
        assert!(validate_round(&absent, &loads, &present, true).is_err());
    }

    #[test]
    fn decentralized_all_pairs_may_act() {
        // Staircase loads: centralized consumes neighbors, decentralized
        // lets every pair act — including a rank sending and receiving.
        let loads = [li(800, 8.0), li(400, 4.0), li(200, 2.0), li(100, 1.0)];
        let cfg = BalancerConfig { rel_threshold: 0.1, ..BalancerConfig::fixed(10) };
        let dec = evaluate_decentralized(&loads, &[1.0; 4], &cfg);
        assert_eq!(dec.len(), 3, "all three pairs act: {dec:?}");
        // rank 1 both receives (from 0) and sends (to 2)
        assert!(dec.iter().any(|t| t.receiver == 1));
        assert!(dec.iter().any(|t| t.donor == 1));
        // half-excess damping: pair (0,1) target 600 → excess 200 → move 100
        assert_eq!(dec[0], Transfer { donor: 0, receiver: 1, amount: 100 });
    }

    #[test]
    fn decentralized_donor_never_overdraws() {
        // Even when a rank donates on both sides, half-excess per pair can
        // never exceed its holdings: each amount ≤ count/2.
        let loads = [li(0, 0.0), li(100, 1.0), li(0, 0.0)];
        let cfg = BalancerConfig { rel_threshold: 0.1, ..BalancerConfig::fixed(1) };
        let dec = evaluate_decentralized(&loads, &[1.0; 3], &cfg);
        let total_from_1: usize = dec.iter().filter(|t| t.donor == 1).map(|t| t.amount).sum();
        assert!(total_from_1 <= 100, "overdraw: {dec:?}");
        assert_eq!(dec.len(), 2);
        validate_round(&dec, &loads, &[0, 1, 2], true).unwrap();
    }

    #[test]
    fn decentralized_converges_but_damping_costs_rounds() {
        // Point spike: decentralized diffusion converges without any
        // manager, but its half-excess damping costs rounds relative to
        // the centralized full-excess walk — the trade-off the ablation
        // bench quantifies. (Empirically ~2x on this spike.)
        let drain = |decentralized: bool| {
            let n = 12;
            let mut counts = vec![1_000usize; n];
            counts[0] = 200_000;
            let powers = vec![1.0; n];
            let cfg = BalancerConfig { rel_threshold: 0.1, ..BalancerConfig::fixed(32) };
            for round in 0..2_000usize {
                let l: Vec<LoadInfo> = counts.iter().map(|&c| li(c, c as f64 * 1e-6)).collect();
                let ts = if decentralized {
                    evaluate_decentralized(&l, &powers, &cfg)
                } else {
                    evaluate(&l, &powers, round % 2, &cfg)
                };
                if ts.is_empty() {
                    return round;
                }
                for t in ts {
                    counts[t.donor] -= t.amount.min(counts[t.donor]);
                    counts[t.receiver] += t.amount;
                }
            }
            2_000
        };
        let dec = drain(true);
        let cen = drain(false);
        assert!(dec < 2_000, "decentralized must converge, took {dec}");
        assert!(cen < 2_000, "centralized must converge, took {cen}");
        assert!(
            dec > cen && dec < 4 * cen,
            "damping costs rounds but stays bounded: dec {dec} vs cen {cen}"
        );
    }

    #[test]
    fn present_subset_maps_back_to_real_ranks() {
        // Rank 1 is dead: present = [0, 2, 3]. An imbalance between 0 and 2
        // must produce a transfer between the *real* ranks 0 and 2, which
        // validation against the full rank list rejects as non-neighbors.
        let loads = [li(400, 4.0), li(100, 1.0), li(100, 1.0)];
        let present = [0usize, 2, 3];
        let t = NeighborPair.decide(&loads, &[1.0; 3], &present, 0, &cfg());
        assert_eq!(t, vec![Transfer { donor: 0, receiver: 2, amount: 150 }]);
        assert!(validate_round(&t, &[li(400, 4.0); 4], &[0, 1, 2, 3], false).is_err());
        validate_round(&t, &loads, &present, false).unwrap();
    }

    #[test]
    fn mapped_validation_rejects_absent_and_nonadjacent() {
        let present = [0usize, 2, 3];
        let loads = [li(10, 1.0); 3];
        let absent = vec![Transfer { donor: 1, receiver: 2, amount: 5 }];
        assert!(validate_round(&absent, &loads, &present, false).is_err());
        let skip = vec![Transfer { donor: 0, receiver: 3, amount: 5 }];
        assert!(validate_round(&skip, &loads, &present, false).is_err());
        let double = vec![
            Transfer { donor: 0, receiver: 2, amount: 5 },
            Transfer { donor: 2, receiver: 3, amount: 5 },
        ];
        assert!(validate_round(&double, &loads, &present, false).is_err());
        let unsorted = [2usize, 0, 3];
        assert!(validate_round(&[], &loads, &unsorted, false).is_err());
    }

    #[test]
    fn present_subset_with_all_ranks_matches_plain_evaluate() {
        let loads = [li(400, 4.0), li(100, 1.0), li(400, 4.0), li(100, 1.0)];
        let present = [0usize, 1, 2, 3];
        for start in [0, 1] {
            assert_eq!(
                NeighborPair.decide(&loads, &[1.0; 4], &present, start as u64, &cfg()),
                evaluate(&loads, &[1.0; 4], start, &cfg())
            );
        }
    }

    #[test]
    fn convergence_under_repeated_rounds() {
        // Simulate rounds: time proportional to count; all powers equal.
        // The balancer must monotonically reduce imbalance to threshold.
        let mut counts = vec![1000usize, 10, 10, 10, 10, 10, 10, 10];
        let powers = vec![1.0; 8];
        let c = BalancerConfig { rel_threshold: 0.1, ..BalancerConfig::fixed(5) };
        for round in 0..64 {
            let loads: Vec<LoadInfo> = counts.iter().map(|&n| li(n, n as f64 * 1e-3)).collect();
            let ts = evaluate(&loads, &powers, round % 2, &c);
            validate_round(&ts, &loads, &[0, 1, 2, 3, 4, 5, 6, 7], false).unwrap();
            for t in ts {
                counts[t.donor] -= t.amount;
                counts[t.receiver] += t.amount;
            }
        }
        let max = *counts.iter().max().unwrap() as f64;
        let mean = counts.iter().sum::<usize>() as f64 / 8.0;
        assert!(max / mean < 1.35, "neighbor balancing should flatten the spike: {counts:?}");
    }
}
