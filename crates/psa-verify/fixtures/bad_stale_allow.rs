// psa-verify-fixture: expect(stale-allow)
// An allow-annotation left behind after the code it excused was fixed:
// the map below became a BTreeMap, so the annotation suppresses nothing.
// Dead escape hatches are errors — otherwise they silently re-arm the
// moment someone reintroduces the construct nearby.

pub fn tally(ranks: &[usize]) -> Vec<(usize, usize)> {
    // psa-verify: allow(nondet-taint) — left behind after a BTreeMap refactor
    let mut counts: std::collections::BTreeMap<usize, usize> = Default::default();
    for &r in ranks {
        *counts.entry(r).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}
