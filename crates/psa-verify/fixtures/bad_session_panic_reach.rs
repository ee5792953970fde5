// psa-verify-fixture: expect(panic-reach)
// Clippy refuses the same construct by path: crates/psa-verify/tests/clippy_fixtures.rs.
// A slot acquire that unwraps the free list one call down: a saturated
// arena returns None, the dispatch loop panics, and the whole pool dies
// with every queued tenant's work — the exact failure admission control
// exists to make impossible. Acquire must hand back an Option the
// admission layer turns into a typed Queued/Rejected decision.
// psa-verify: panic-entry(acquire_slot)

pub fn acquire_slot(free: &mut Vec<usize>) -> usize {
    next_free_index(free)
}

fn next_free_index(free: &mut Vec<usize>) -> usize {
    free.pop().unwrap()
}
