// psa-verify-fixture: expect(nondet-taint)
// Clippy refuses the same construct by path: crates/psa-verify/tests/clippy_fixtures.rs.
// A balancer strategy written the tempting-but-wrong way: per-rank loads
// tallied in a HashMap (iteration order depends on the hasher seed, so
// the same load vector can emit transfers in a different order on the
// next run) and donor/receiver tie-breaks drawn from the wall clock and
// the thread-local RNG instead of the run's seeded `Rng64` stream. Any
// of these defects alone is enough to make same-seed runs diverge; the
// real suite in `psa-runtime/src/balancers.rs` works over index-ordered
// slices and is a pure function of its inputs. `decide_round` is a phase
// entry, so the taint pass reports every source it reads.

use std::collections::HashMap;

pub struct Transfer {
    pub donor: usize,
    pub receiver: usize,
    pub amount: usize,
}

pub fn decide_round(loads: &[usize]) -> Vec<Transfer> {
    let mut by_rank: HashMap<usize, usize> = HashMap::new();
    for (rank, &count) in loads.iter().enumerate() {
        by_rank.insert(rank, count);
    }
    let mean = loads.iter().sum::<usize>() / loads.len().max(1);
    let mut out = Vec::new();
    for (&rank, &count) in by_rank.iter() {
        if count > mean && rank + 1 < loads.len() {
            // Coin-flip tie-breaks from the wall clock and the ambient
            // OS-seeded generator: neither can be replayed from the seed.
            let flip = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos() & 1)
                .unwrap_or(0);
            let nudge = if rand::random::<bool>() { 1 } else { 0 };
            let receiver = if flip == 0 { rank + 1 } else { rank.saturating_sub(1) };
            out.push(Transfer { donor: rank, receiver, amount: (count - mean) / 2 + nudge });
        }
    }
    out
}
