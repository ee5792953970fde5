// psa-verify-fixture: expect(panic-reach)
// Clippy refuses the same construct by path: crates/psa-verify/tests/clippy_fixtures.rs.
// An event-fabric recv that unwraps its inbox pop two calls down: a link
// that never carried traffic returns None, the rank "thread" panics the
// whole single-threaded event loop, and a 1,024-rank sweep dies on the
// first idle link. Fabric entries must return typed transport errors.
// psa-verify: panic-entry(recv_event)

pub fn recv_event(inbox: &mut Vec<(f64, u64)>) -> u64 {
    pop_front_seq(inbox)
}

fn pop_front_seq(inbox: &mut Vec<(f64, u64)>) -> u64 {
    let (_time, seq) = inbox.pop().unwrap();
    seq
}
