// psa-verify: allow(index-panic) — fixture: a fabric file whose rank
// tables are sized by construction; no peer index comes from the wire.
// psa-verify: panic-entry(route)
//
// A clean file: ordered collections, annotated indexing, fallible message
// handling. Must produce zero violations.

use std::collections::BTreeMap;

pub fn route(clocks: &mut [f64], rank: usize) {
    clocks[rank] += 1.0;
}

pub fn tally(ranks: &[usize]) -> BTreeMap<usize, usize> {
    let mut counts = BTreeMap::new();
    for &r in ranks {
        *counts.entry(r).or_insert(0) += 1;
    }
    counts
}

// psa-verify: allow(nondet-taint) — a real-time helper; its wait is host time only
pub fn phase_ship() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }

pub fn handle(mailbox: Option<Vec<u8>>) -> Result<Vec<u8>, String> {
    mailbox.ok_or_else(|| "peer disconnected".to_string())
}
