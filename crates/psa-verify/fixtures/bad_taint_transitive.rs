// psa-verify-fixture: expect(nondet-taint)
// Clippy refuses the same construct by path: crates/psa-verify/tests/clippy_fixtures.rs.
// Transitive taint: the phase entry is clean, but two calls down a helper
// samples the OS entropy pool. A lexical scan of the entry file would
// never see it; the call-graph pass walks phase_exchange → jitter_all →
// seed_noise and pins the finding to the source line, naming the entry.

pub fn phase_exchange(n: usize) -> f64 {
    jitter_all(n)
}

fn jitter_all(n: usize) -> f64 {
    seed_noise() * n as f64
}

fn seed_noise() -> f64 {
    rand::random::<f64>()
}
