// psa-verify-fixture: expect(nondet-taint)
// Clippy refuses the same construct by path: crates/psa-verify/tests/clippy_fixtures.rs.
// A phase entry that reads the host clock directly: the compute phase's
// output now depends on machine load. Clippy flags the clock read itself;
// the taint analysis additionally proves it sits on a path from a phase
// entry point, so moving it behind an `#[expect]`ed helper cannot hide it.

pub fn phase_calculus(dt: f64) -> f64 {
    let t0 = std::time::Instant::now();
    integrate(dt);
    t0.elapsed().as_secs_f64()
}

fn integrate(_dt: f64) {}
