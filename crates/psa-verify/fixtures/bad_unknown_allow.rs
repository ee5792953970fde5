// psa-verify-fixture: expect(stale-allow)
// An allow-annotation naming a key no lint registers (a typo, and a lint
// clippy checks now): it can never suppress anything, so it is flagged
// even though it sits right where the author intended it to work.

pub fn frame_cost_placeholder() -> f64 {
    // psa-verify: allow(wallclock) — typo: names no registered lint key
    0.0
}

pub fn epoch_placeholder() -> f64 {
    // psa-verify: allow(wall-clock) — the key of a lint that moved to clippy
    0.0
}
